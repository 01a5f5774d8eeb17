// Package parcelport defines the HPX parcelport abstraction: the layer that
// transfers serialized HPX messages between localities. It hosts what the
// two concrete parcelports (internal/parcelport/mpipp and
// internal/parcelport/lcipp) share — the interface, the Table 1
// configuration grammar, the header-message codec with piggybacking and the
// sender's follow-up order (AppendFollowUps), the shared receiver that
// validates a header and reassembles its message (Recv), and the atomic tag
// allocator described in §3 of the paper.
package parcelport

import (
	"fmt"
	"sync"

	"hpxgo/internal/serialization"
)

// DeliverFunc receives a fully reassembled HPX message at the target
// locality. The upper layer decodes it into parcels and spawns their action
// tasks.
type DeliverFunc func(m *serialization.Message)

// Parcelport transfers serialized HPX messages. Implementations must be safe
// for concurrent use: in HPX every worker thread may initiate sends and call
// BackgroundWork when idle.
type Parcelport interface {
	// Name returns the Table 1 configuration string (e.g. "lci_psr_cq_pin_i").
	Name() string
	// Start installs the delivery callback and launches any dedicated
	// threads. Must be called before Send.
	Start(deliver DeliverFunc) error
	// Stop shuts the parcelport down and joins its threads.
	Stop()
	// Send transfers an HPX message to the destination locality. It never
	// blocks on the network; transfers progress via BackgroundWork (and the
	// progress thread, if any). m.Done is called when the transfer completes
	// locally.
	Send(dst int, m *serialization.Message)
	// BackgroundWork performs one bounded slice of network progress on
	// behalf of an idle worker thread. Returns true if any work was done.
	BackgroundWork(workerID int) bool
}

// MaxPendingConnections is HPX's default cap on simultaneously pending
// connections (per destination), 8192 in the paper.
const MaxPendingConnections = 8192

// TagAllocator hands out message tags, wrapping below an upper bound. The
// paper's allocator (§3.1 "Tag management") is a bare atomic counter whose
// wraparound safety *assumes* any connection with the same tag completed
// before the value comes around again — an assumption that silently breaks
// under small tag spaces, slow receivers, or lossy fabrics that stretch
// connection lifetimes. This allocator tracks in-flight tags instead: the
// cursor still advances monotonically (so reuse distance stays maximal), but
// allocation skips tags whose connection has not released them yet, and tag
// space exhaustion fails loudly rather than matching two live connections to
// one tag.
type TagAllocator struct {
	mu     sync.Mutex
	bound  uint64   // tags are in [1, bound); 0 is reserved for header messages
	inUse  []uint64 // bitset over bound-1 slots; slot s <-> tag s+1
	free   uint64   // free slot count
	cursor uint64   // next slot the scan starts from
}

// NewTagAllocator creates an allocator with tags in [1, bound).
func NewTagAllocator(bound uint32) *TagAllocator {
	if bound < 2 {
		bound = 2
	}
	slots := uint64(bound) - 1
	return &TagAllocator{
		bound: uint64(bound),
		inUse: make([]uint64, (slots+63)/64),
		free:  slots,
	}
}

func (a *TagAllocator) isSet(slot uint64) bool { return a.inUse[slot/64]&(1<<(slot%64)) != 0 }
func (a *TagAllocator) set(slot uint64)        { a.inUse[slot/64] |= 1 << (slot % 64) }
func (a *TagAllocator) clear(slot uint64)      { a.inUse[slot/64] &^= 1 << (slot % 64) }

// Next returns one fresh tag, skipping tags still held by live connections.
func (a *TagAllocator) Next() uint32 { return a.Block(1) }

// Block reserves n consecutive tags (modulo wraparound) and returns the
// first. Tag k of the block is Nth(first, k). The block must be released
// with Release(first, n) once the owning connection completes. Block panics
// when no run of n free tags exists: with MaxPendingConnections bounding
// concurrent connections and realistic tag bounds this means tags leaked.
func (a *TagAllocator) Block(n int) uint32 {
	if n <= 0 {
		n = 1
	}
	slots := a.bound - 1
	a.mu.Lock()
	defer a.mu.Unlock()
	if uint64(n) <= a.free && uint64(n) <= slots {
		s, advanced := a.cursor, uint64(0)
		for advanced < slots {
			run := uint64(0)
			for run < uint64(n) && !a.isSet((s+run)%slots) {
				run++
			}
			if run == uint64(n) {
				for k := uint64(0); k < uint64(n); k++ {
					a.set((s + k) % slots)
				}
				a.free -= uint64(n)
				a.cursor = (s + uint64(n)) % slots
				return uint32(s) + 1
			}
			// Skip just past the in-flight tag that blocked the run.
			advanced += run + 1
			s = (s + run + 1) % slots
		}
	}
	panic(fmt.Sprintf(
		"parcelport: tag space exhausted (%d requested, %d free of %d): connections leaked tags or the tag bound is too small",
		n, a.free, slots))
}

// Release returns the n-tag block starting at first to the allocator. Safe
// to call once per Block; releasing an already-free tag is a harmless no-op
// (the original-mode parcelports never release — their receiver-driven tag
// provider recycles tags on its own).
func (a *TagAllocator) Release(first uint32, n int) {
	if n <= 0 {
		n = 1
	}
	slots := a.bound - 1
	a.mu.Lock()
	for k := 0; k < n; k++ {
		slot := (uint64(first) - 1 + uint64(k)) % slots
		if a.isSet(slot) {
			a.clear(slot)
			a.free++
		}
	}
	a.mu.Unlock()
}

// InFlight reports the number of currently reserved tags (tests, stats).
func (a *TagAllocator) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.bound - 1 - a.free)
}

// Nth returns the k-th tag of a block starting at first, applying the same
// wraparound rule as Block. Receivers recompute block members from the
// header's base tag with this, so the arithmetic is part of the wire
// contract and must stay in sync with Block.
func (a *TagAllocator) Nth(first uint32, k int) uint32 {
	return uint32((uint64(first-1)+uint64(k))%(a.bound-1)) + 1
}
