package wire

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Size-classed byte-buffer pool backing the hot-path allocations of the
// network stack: sender-side header buffers in the parcelports, aggregation
// bundles, serialization scratch, and every buffer a received message is
// staged in — eager chunks and rendezvous (zero-copy) chunks alike. Buffers
// are handed out at the exact requested length but always carry the capacity
// of their size class, so a caller that appends within its declared need
// never reallocates.
//
// Ownership is strict: PutBuf may only be called by the single owner of the
// buffer, once nothing aliases it. Returning a buffer that is still
// referenced corrupts a future unrelated message.

// poolClasses are the buffer capacities kept in pools, smallest first. The
// two largest cover rendezvous transfers; requests above the largest class
// fall back to plain allocation.
var poolClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

var pools [len(poolClasses)]sync.Pool

// poolMisses counts, per class, the GetBuf calls that found the class's pool
// empty and allocated. Only the allocating fallback touches it.
var poolMisses [len(poolClasses)]atomic.Uint64

// poisonOnPut makes PutBuf overwrite what it recycles with poisonByte, so a
// reader still aliasing a returned buffer sees garbage instead of stale but
// plausible bytes, and makes GetBuf count in poisonBroken every recycled
// buffer that no longer holds the fill — one written to after its owner
// returned it. Only tests set it (export_test.go).
var (
	poisonOnPut  atomic.Bool
	poisonBroken atomic.Uint64
)

const poisonByte = 0xDB

// bufBox carries a slice through sync.Pool behind a pointer: putting a bare
// []byte into a pool boxes its header on every Put, which would make buffer
// recycle itself allocate. Empty boxes recycle through boxPool, so in steady
// state a Get/Put cycle performs zero allocations.
type bufBox struct{ b []byte }

var boxPool = sync.Pool{New: func() any { return new(bufBox) }}

// GetBuf returns a buffer of length n. Contents are unspecified (recycled
// buffers keep their previous bytes); callers must overwrite what they use.
func GetBuf(n int) []byte {
	for i, c := range poolClasses {
		if n <= c {
			if v := pools[i].Get(); v != nil {
				box := v.(*bufBox)
				b := box.b[:n]
				box.b = nil
				boxPool.Put(box)
				if poisonOnPut.Load() && bytes.Count(b[:c], []byte{poisonByte}) != c {
					poisonBroken.Add(1)
				}
				return b
			}
			poolMisses[i].Add(1)
			return make([]byte, n, c)
		}
	}
	return make([]byte, n)
}

// PutBuf returns a buffer obtained from GetBuf to its pool. Buffers whose
// capacity is not exactly a pool class (e.g. oversize fallbacks, or slices
// the caller grew past their class) are left to the garbage collector.
func PutBuf(b []byte) {
	c := cap(b)
	for i, pc := range poolClasses {
		if c == pc {
			if poisonOnPut.Load() {
				b = b[:pc]
				for j := range b {
					b[j] = poisonByte
				}
			}
			box := boxPool.Get().(*bufBox)
			box.b = b[:0:pc]
			pools[i].Put(box)
			return
		}
	}
}

// PoolMiss is one size class's miss count.
type PoolMiss struct {
	Class  int // buffer capacity in bytes
	Misses uint64
}

// PoolMisses reports, per size class, how many GetBuf calls allocated
// because the class's pool was empty (process-wide, since start). A class
// whose count keeps growing under steady load is not recycling.
func PoolMisses() []PoolMiss {
	out := make([]PoolMiss, len(poolClasses))
	for i, c := range poolClasses {
		out[i] = PoolMiss{Class: c, Misses: poolMisses[i].Load()}
	}
	return out
}
