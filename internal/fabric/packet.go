package fabric

// Packet is the unit the fabric moves. The fabric itself assigns no meaning
// to Op, T0, or T1: they are an opcode and two 64-bit metadata words for the
// communication library built on top (tag bits, handle indices, sizes, ...).
//
// Packets returned by Poll are owned by the caller and must be given back
// with Release (see pool.go for the full ownership protocol).
type Packet struct {
	Src, Dst int
	Op       uint8
	T0, T1   uint64
	// T2 is a third metadata word. mpisim uses it for the per-peer sequence
	// numbers that implement MPI's non-overtaking matching order on top of
	// the (unordered, multi-rail) fabric; the LCI library leaves it unused —
	// LCI explicitly does not guarantee delivery order.
	T2   uint64
	Data []byte

	// Rail selects the transmission rail. Zero (the zero value every
	// existing caller passes) keeps the fabric's round-robin spraying;
	// RailPin(r) pins the packet to rail r. Striping one logical transfer
	// across rails — the chunked rendezvous path — needs the pin so each
	// chunk run lands on a distinct rail deterministically instead of
	// wherever the shared round-robin cursor happens to point.
	Rail int

	// Borrow requests zero-copy injection: the fabric references Data
	// directly instead of making its "DMA" copy into a pooled buffer —
	// the analogue of transmitting straight out of registered memory. The
	// caller must keep Data valid and unmutated until the packet has been
	// delivered and released; a protocol built on Borrow therefore needs a
	// remote completion notification (the chunked rendezvous FIN) before
	// reusing the buffer. Honored on the lossless path only: with fault
	// injection active the fabric falls back to copying, because
	// retransmission and corruption injection both need a private pristine
	// copy.
	Borrow bool

	arriveNs int64 // set by Inject; visible to Poll once passed

	// Pool bookkeeping (pool.go); zero for caller-constructed packets.
	// refs is a plain int32 accessed atomically (not atomic.Int32) so the
	// Inject(p Packet) by-value template API stays copyable under vet.
	owner *Device
	refs  int32

	// Reliability framing (rel.go); zero when Config.Reliability is off.
	relSeq   uint64 // per-(src, dst, device) sequence number, 1-based
	relAck   uint64 // piggybacked cumulative ack for the reverse direction
	relFlags uint8
	sum      uint32 // checksum over metadata + payload
}

// ArrivedAtNs exposes the computed arrival time (nanoseconds since network
// creation) for tests that validate the latency/bandwidth model.
func (p *Packet) ArrivedAtNs() int64 { return p.arriveNs }

// RailPin encodes rail r (0-based, taken modulo the configured rail count)
// for Packet.Rail. The encoding is offset by one so that the Packet zero
// value still means "no pin, round-robin".
func RailPin(r int) int { return r + 1 }
