package fabric

import (
	"sync/atomic"

	"hpxgo/internal/ring"
)

// The packet pool removes the per-message make([]byte) + Packet allocation
// from the fabric datapath. Every stored packet the fabric creates — the
// "DMA" copy made by Inject, ARQ transmission clones, standalone acks —
// is drawn from the injecting device's pool and returns to it through
// Packet.Release once the consumer is done. In steady state the
// inject → poll → release cycle recycles the same buffers and performs
// zero allocations (enforced by TestInjectPollReleaseZeroAllocs).
//
// Ownership protocol (see DESIGN.md §8):
//
//   - Inject(p) copies p into a pooled packet; the caller keeps owning p
//     and its Data and may reuse both immediately.
//   - Poll transfers ownership of the returned *Packet to the caller, who
//     must call Release exactly once when finished with the packet AND its
//     Data. Holding either past Release is a use-after-free.
//   - Packets the fabric consumes internally (acks, duplicates, corrupt
//     arrivals) are released by the fabric; upper layers never see them.
//
// Releasing is a performance protocol, not a liveness requirement: a packet
// that is never released is simply collected by the GC and the pool
// allocates a replacement. Releasing twice panics.

const (
	// poolFreeCap bounds recycled packets kept per device; releases beyond
	// it fall to the GC (bounded idle memory).
	poolFreeCap = 1024
	// poolInitialPayloadCap is the payload capacity of a freshly allocated
	// pooled packet. Large enough for the short-message immediate word and
	// typical eager headers; append grows it on demand and the grown
	// capacity is what gets recycled.
	poolInitialPayloadCap = 64
	// maxRecycledPayload drops oversized payload buffers at release so one
	// rendezvous transfer cannot pin megabytes in the freelist forever.
	maxRecycledPayload = 64 << 10
)

// packetPool is a per-device freelist of stored packets.
type packetPool struct {
	free *ring.MPMC[*Packet]

	gets   atomic.Uint64 // packets taken from the pool (hit or miss)
	puts   atomic.Uint64 // packets released back (recycled or dropped)
	allocs atomic.Uint64 // pool misses: fresh heap allocations
	drops  atomic.Uint64 // releases that found the freelist full
}

func newPacketPool() *packetPool {
	return &packetPool{free: ring.New[*Packet](poolFreeCap)}
}

// PoolStats is a snapshot of a device's packet-pool counters. In a quiescent
// network where every consumer released its packets, Gets == Puts.
type PoolStats struct {
	Gets   uint64 // packets handed out by the pool
	Puts   uint64 // packets released back
	Allocs uint64 // pool misses (fresh allocations)
	Drops  uint64 // releases dropped to the GC (freelist full)
}

// PoolStats returns a snapshot of the device's packet-pool counters.
func (d *Device) PoolStats() PoolStats {
	return PoolStats{
		Gets:   d.pool.gets.Load(),
		Puts:   d.pool.puts.Load(),
		Allocs: d.pool.allocs.Load(),
		Drops:  d.pool.drops.Load(),
	}
}

// getPacket takes a recycled packet from the device pool (or allocates one
// on a miss). The returned packet has refs == 1, zeroed reliability framing
// and a zero-length Data slice with whatever capacity it retired with.
func (d *Device) getPacket() *Packet {
	pp := d.pool
	pp.gets.Add(1)
	p, ok := pp.free.TryPop()
	if !ok {
		pp.allocs.Add(1)
		p = &Packet{Data: make([]byte, 0, poolInitialPayloadCap)}
	}
	p.owner = d
	atomic.StoreInt32(&p.refs, 1)
	p.Op, p.T0, p.T1, p.T2 = 0, 0, 0, 0
	p.Rail = 0
	p.Borrow = false
	p.relSeq, p.relAck, p.relFlags, p.sum = 0, 0, 0, 0
	p.arriveNs = 0
	return p
}

// newStored copies the caller's packet template into a pooled stored packet
// (the Inject "DMA" copy). Zero allocations once the recycled payload
// capacity covers the payload size. A Borrow template skips the copy and
// references the caller's payload directly (see Packet.Borrow); Release
// then drops the reference instead of recycling foreign memory into the
// pool.
func (d *Device) newStored(p *Packet) *Packet {
	s := d.getPacket()
	s.Src, s.Dst, s.Op = p.Src, p.Dst, p.Op
	s.T0, s.T1, s.T2 = p.T0, p.T1, p.T2
	if p.Borrow {
		s.Borrow = true
		s.Data = p.Data
		return s
	}
	s.Data = append(s.Data[:0], p.Data...)
	return s
}

// Retain adds a reference to a pooled packet: Release must then be called
// once per holder. A no-op for packets the pool does not manage.
func (p *Packet) Retain() {
	if p.owner != nil {
		atomic.AddInt32(&p.refs, 1)
	}
}

// Release drops one reference; the last release returns the packet (and its
// payload buffer) to the owning device's pool. Releasing more times than
// Retain+Poll granted references panics. Safe to call on packets the pool
// does not manage (no-op), so consumers can release unconditionally.
func (p *Packet) Release() {
	if p.owner == nil {
		return
	}
	n := atomic.AddInt32(&p.refs, -1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("fabric: packet double-release")
	}
	d := p.owner
	pp := d.pool
	pp.puts.Add(1)
	if p.Borrow {
		p.Data = nil // borrowed payload is the injector's memory, never pooled
		p.Borrow = false
	} else if cap(p.Data) > maxRecycledPayload {
		p.Data = nil
	} else {
		p.Data = p.Data[:0]
	}
	if !pp.free.TryPush(p) {
		pp.drops.Add(1)
		p.owner = nil // freelist full: let the GC have it
	}
}
