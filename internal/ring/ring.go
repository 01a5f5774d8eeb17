// Package ring is the bounded lock-free queue the communication layers share.
// It imports nothing from the tree, so both internal/fabric and internal/lci
// (which imports fabric) can use it.
package ring

import "sync/atomic"

// MPMC is a bounded multi-producer multi-consumer FIFO queue (Dmitry Vyukov's
// sequence-numbered ring). Both TryPush and TryPop are lock-free in the sense
// that a stalled thread can delay at most the slot it claimed; there is no
// mutex anywhere. In internal/lci it backs the completion queues and the
// packet-pool freelist, the two structures the paper credits for LCI's
// low-overhead completion path ("polling one completion queue is preferable
// to polling multiple requests"); in internal/fabric, the per-device packet
// pool freelist and the arrival ready-index.
type MPMC[T any] struct {
	mask uint64
	buf  []cell[T]
	_    [56]byte // keep enq and deq on separate cache lines
	enq  atomic.Uint64
	_    [56]byte
	deq  atomic.Uint64
}

type cell[T any] struct {
	seq atomic.Uint64
	val T
}

// New creates a ring with capacity rounded up to a power of two.
func New[T any](capacity int) *MPMC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &MPMC[T]{mask: uint64(n - 1), buf: make([]cell[T], n)}
	for i := range r.buf {
		r.buf[i].seq.Store(uint64(i))
	}
	return r
}

// TryPush enqueues v, returning false if the ring is full.
func (r *MPMC[T]) TryPush(v T) bool {
	pos := r.enq.Load()
	for {
		slot := &r.buf[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.val = v
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full
		default:
			pos = r.enq.Load()
		}
	}
}

// TryPop dequeues the oldest element, returning false if the ring is empty.
func (r *MPMC[T]) TryPop() (T, bool) {
	var zero T
	pos := r.deq.Load()
	for {
		slot := &r.buf[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := slot.val
				slot.val = zero
				slot.seq.Store(pos + r.mask + 1)
				return v, true
			}
			pos = r.deq.Load()
		case seq <= pos:
			return zero, false // empty
		default:
			pos = r.deq.Load()
		}
	}
}

// Len returns an approximate number of queued elements.
func (r *MPMC[T]) Len() int {
	n := int64(r.enq.Load()) - int64(r.deq.Load())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Cap returns the ring capacity.
func (r *MPMC[T]) Cap() int { return len(r.buf) }
