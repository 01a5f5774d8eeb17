package fabric

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"

	"hpxgo/internal/wire"
)

// The reliability layer is a per-device ARQ (automatic repeat request)
// engine, modelled on what a reliable-connection NIC transport does in
// hardware. It sits entirely below the packet interface: the communication
// libraries above (mpisim, lci) keep their lossless-fabric assumptions, and
// faults injected by FaultConfig are absorbed here.
//
//   - Every data packet on a directed (src, dst) link carries a
//     monotonically increasing sequence number and a checksum over header
//     and payload.
//   - The receiver discards corrupt packets (checksum mismatch) and
//     duplicates (sequence already seen), tracks the cumulative contiguous
//     prefix, and acknowledges it — piggybacked on reverse traffic, or as a
//     standalone ack packet once AckDelayNs of idle time passes.
//   - The sender keeps a pristine copy of every unacked packet and
//     retransmits from its progress loop (Poll) with exponential backoff and
//     jitter. A packet that exhausts Config.RetryBudget transmission
//     attempts declares the link HealthDown: unacked state is dropped and
//     subsequent sends are blackholed, so the layers above observe a dead
//     peer instead of a wedged progress engine.
//
// Delivery through the ARQ is exactly-once but not ordered: rails still
// reorder, and retransmissions reorder further. That matches the guarantees
// the fabric documented before (lci tolerates reordering natively; mpisim
// restores order with its own per-peer sequence numbers).
//
// When reliability is enabled without fault injection, the fabric is
// lossless by construction — nothing can drop, corrupt or duplicate a queued
// packet — so the sender elides the retransmission buffer: packets carry the
// same sequence/ack framing (the wire protocol is identical, and dedup,
// acks, health and SetLinkDown all behave the same), but no pristine copy is
// retained and the retransmit scan never runs. This is the analogue of
// hardware-offloaded reliable delivery: the guarantee is free when the
// transport cannot actually fail, and the benchmark-visible cost of
// "reliability on, faults off" stays within measurement noise of the
// baseline fabric.

// relFlags bits.
const (
	flagRel uint8 = 1 << 0 // reliability framing present: sum and relAck valid
	flagSeq uint8 = 1 << 1 // relSeq valid (a data packet, subject to dedup)
)

// opAck marks fabric-internal standalone ack packets. The value is never
// seen by upper layers (ack-only packets are consumed in Poll).
const opAck uint8 = 0xFF

// degradedAfter is the number of retransmissions since the last ack
// progress beyond which a link reports HealthDegraded.
const degradedAfter = 3

// backoffCapShift caps the exponential retransmission backoff at
// RetransmitTimeoutNs << backoffCapShift.
const backoffCapShift = 6

// relPending is one unacked packet on a tx link. The pristine stored copy is
// embedded by value, so an unacked packet costs one allocation, and acked
// entries are recycled through the link's free list (the payload buffer keeps
// its capacity), keeping the steady-state allocation rate of the reliable
// path equal to the baseline fabric's.
type relPending struct {
	pkt      Packet // pristine stored copy; every transmission sends a clone
	attempts int    // transmission attempts so far (including the first)
	dueNs    int64  // when the next retransmission is due
	sentNs   int64  // first transmission time (RTT sampling)
	next     *relPending
}

// txLink is the sender side of one directed link: sequence numbers, the
// unacked window and the fault stream. The buffered (fault-absorbing) ARQ
// keeps everything under mu; the lossless fast path touches only the three
// atomics below, so the per-message inject never contends with the poller's
// ack processing.
type txLink struct {
	mu              sync.Mutex
	rng             *rand.Rand
	nextSeq         uint64
	maxAcked        uint64
	unacked         map[uint64]*relPending
	free            *relPending // recycled acked entries
	nextDue         int64       // earliest dueNs in the window (may be stale-low)
	down            bool
	retransSinceAck int
	degraded        bool // health hysteresis state; see noteRetransmitLocked

	// Lossless fast-path state (rs.buffered == false); mu is not taken.
	seqF  atomic.Uint64 // sequence counter
	ackF  atomic.Uint64 // highest cumulative ack seen
	downF atomic.Bool   // SetLinkDown blackhole flag

	// RTT sampling. rttEwma is the smoothed send→ack round trip in ns
	// (0 = no sample yet), written under mu on the buffered path and by the
	// sample claimant on the lossless path. The lossless path cannot stamp
	// every packet (no per-packet state is retained), so it keeps at most
	// one outstanding (sampleSeq, sampleNs) probe per link; whoever observes
	// the ack passing sampleSeq claims it with a CAS and folds the sample in.
	rttEwma   atomic.Int64
	sampleSeq atomic.Uint64
	sampleNs  atomic.Int64
}

// observeRTT folds one round-trip sample into the link's EWMA (α = 1/8,
// standard smoothed-RTT gain). Only one writer runs at a time (tl.mu on the
// buffered path, the CAS claimant on the lossless path), so load+store is
// race-free against the lock-free readers.
func (tl *txLink) observeRTT(sampleNs int64) {
	old := tl.rttEwma.Load()
	if old == 0 {
		tl.rttEwma.Store(sampleNs)
		return
	}
	tl.rttEwma.Store(old + (sampleNs-old)/8)
}

// noteRetransmitLocked records one retransmission for health accounting:
// reaching degradedAfter retransmissions since effective ack progress enters
// the Degraded state. Caller holds tl.mu.
func (tl *txLink) noteRetransmitLocked() {
	tl.retransSinceAck++
	if tl.retransSinceAck >= degradedAfter {
		tl.degraded = true
	}
}

// noteAckProgressLocked records cumulative-ack progress for health
// accounting. The counter decays (halves) rather than resetting: under
// steady partial loss acks and retransmissions interleave, and a hard reset
// made health flap healthy↔degraded on every ack. Degraded exits only when
// the counter decays to zero — a run of ack progress without fresh
// retransmissions — giving the enter/exit hysteresis band [0, degradedAfter).
// Caller holds tl.mu.
func (tl *txLink) noteAckProgressLocked() {
	tl.retransSinceAck >>= 1
	if tl.retransSinceAck == 0 {
		tl.degraded = false
	}
}

// rxLink is the receiver side of one directed link: dedup state and the ack
// timer. cum and ackOwedNs are atomics so the sender path can piggyback the
// latest cumulative ack without taking the rx lock (no lock nesting).
type rxLink struct {
	mu        sync.Mutex
	cum       atomic.Uint64 // contiguous prefix [1, cum] delivered
	ooo       map[uint64]struct{}
	ackOwedNs atomic.Int64 // when an unacknowledged arrival was first seen (0 = none)
}

// relState is one device's reliability engine.
type relState struct {
	dev      *Device
	buffered bool      // faults can occur: retain payloads for retransmission
	tx       []*txLink // indexed by destination node
	rx       []*rxLink // indexed by source node

	dueNs     atomic.Int64
	granuleNs int64 // minimum spacing between maintenance passes
}

func newRelState(d *Device) *relState {
	cfg := &d.net.cfg
	rs := &relState{dev: d, buffered: cfg.Faults.Active()}
	rs.tx = make([]*txLink, cfg.Nodes)
	rs.rx = make([]*rxLink, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		rs.tx[n] = &txLink{
			rng:     linkRNG(cfg.Faults.Seed, d.node, n, d.idx),
			unacked: make(map[uint64]*relPending),
		}
		rs.rx[n] = &rxLink{ooo: make(map[uint64]struct{})}
	}
	g := cfg.RetransmitTimeoutNs / 4
	if cfg.AckDelayNs/4 < g {
		g = cfg.AckDelayNs / 4
	}
	if g < 20_000 {
		g = 20_000
	}
	rs.granuleNs = g
	rs.dueNs.Store(d.net.nowNs() + g)
	return rs
}

// packetChecksum hashes the packet metadata and payload. The checksum field
// itself is excluded (it is zero while hashing a fresh clone).
func packetChecksum(p *Packet) uint32 {
	var meta [58]byte
	meta[0] = p.Op
	meta[1] = p.relFlags
	binary.LittleEndian.PutUint64(meta[2:], uint64(p.Src))
	binary.LittleEndian.PutUint64(meta[10:], uint64(p.Dst))
	binary.LittleEndian.PutUint64(meta[18:], p.T0)
	binary.LittleEndian.PutUint64(meta[26:], p.T1)
	binary.LittleEndian.PutUint64(meta[34:], p.T2)
	binary.LittleEndian.PutUint64(meta[42:], p.relSeq)
	binary.LittleEndian.PutUint64(meta[50:], p.relAck)
	return wire.Checksum32Add(wire.Checksum32(meta[:]), p.Data)
}

// clonePacket copies a pristine stored packet into a pooled packet for one
// transmission attempt. The payload is copied too: the delivered clone is
// handed to the upper layer (which may mutate it) and corruption
// injection must never poison the retransmission copy.
func (d *Device) clonePacket(p *Packet) *Packet {
	w := d.getPacket()
	w.Src, w.Dst, w.Op = p.Src, p.Dst, p.Op
	w.T0, w.T1, w.T2 = p.T0, p.T1, p.T2
	w.relSeq, w.relFlags = p.relSeq, p.relFlags
	w.Data = append(w.Data[:0], p.Data...)
	return w
}

// corruptPacket flips one random bit after the checksum was computed, so
// the receiver's verification fails.
func corruptPacket(p *Packet, rng *rand.Rand) {
	if len(p.Data) > 0 {
		p.Data[rng.Intn(len(p.Data))] ^= 1 << uint(rng.Intn(8))
		return
	}
	p.T1 ^= 1 << uint(rng.Intn(64))
}

// lowerDue moves the next maintenance time earlier (never later).
func (rs *relState) lowerDue(ns int64) {
	for {
		cur := rs.dueNs.Load()
		if ns >= cur {
			return
		}
		if rs.dueNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// inject copies the caller's packet into a (recycled) pristine buffer,
// assigns it a sequence number, records it in the unacked window and performs
// the first transmission. Caller has already validated the destination.
func (rs *relState) inject(p *Packet, r *rail) error {
	d := rs.dev
	tl := rs.tx[p.Dst]
	if !rs.buffered {
		// Lossless fast path: full wire framing, no retransmission buffer
		// and no lock (see the package comment). One payload copy, exactly
		// as the baseline fabric.
		if tl.downF.Load() {
			d.downDropped.Add(1)
			return nil // blackholed: the peer is dead, upper layers time out
		}
		if max := d.net.cfg.MaxInflight; max > 0 && int(r.count.Load()) >= max {
			d.backpressured.Add(1)
			return ErrBackpressure
		}
		stored := d.newStored(p)
		stored.relSeq = tl.seqF.Add(1)
		stored.relFlags = flagRel | flagSeq
		stored.relAck = rs.rx[p.Dst].cum.Load()
		rs.rx[p.Dst].ackOwedNs.Store(0) // this transmission carries the ack
		if tl.sampleSeq.Load() == 0 && tl.sampleSeq.CompareAndSwap(0, stored.relSeq) {
			// No probe outstanding: this packet becomes the RTT probe. The
			// timestamp lands after the CAS, but only the admit-side claimant
			// reads it, and it cannot win its CAS before the ack for this
			// sequence exists — i.e. after this store is long visible.
			tl.sampleNs.Store(d.net.nowNs())
		}
		d.enqueue(r, stored, 0)
		d.injectedPackets.Add(1)
		d.injectedBytes.Add(uint64(len(p.Data)))
		return nil
	}
	tl.mu.Lock()
	if tl.down {
		tl.mu.Unlock()
		d.downDropped.Add(1)
		return nil // blackholed: the peer is dead, upper layers time out
	}
	if max := d.net.cfg.MaxInflight; max > 0 && int(r.count.Load()) >= max {
		tl.mu.Unlock()
		d.backpressured.Add(1)
		return ErrBackpressure
	}
	pend := tl.free
	if pend != nil {
		tl.free = pend.next
		pend.next = nil
		pend.attempts = 0
	} else {
		pend = &relPending{}
	}
	w := &pend.pkt
	w.Src, w.Dst, w.Op = p.Src, p.Dst, p.Op
	w.T0, w.T1, w.T2 = p.T0, p.T1, p.T2
	if cap(w.Data) >= len(p.Data) {
		w.Data = w.Data[:len(p.Data)]
	} else {
		w.Data = make([]byte, len(p.Data))
	}
	copy(w.Data, p.Data)
	tl.nextSeq++
	w.relSeq = tl.nextSeq
	w.relFlags = flagRel | flagSeq
	tl.unacked[w.relSeq] = pend
	if len(tl.unacked) == 1 {
		tl.nextDue = 0 // forget the stale minimum of the drained window
	}
	rs.transmitLocked(tl, pend, r)
	tl.mu.Unlock()
	d.injectedPackets.Add(1)
	d.injectedBytes.Add(uint64(len(p.Data)))
	return nil
}

// transmitLocked performs one transmission attempt of pend: clone the
// pristine packet, piggyback the latest cumulative ack for the reverse
// direction, roll the fault dice and enqueue. Caller holds tl.mu.
func (rs *relState) transmitLocked(tl *txLink, pend *relPending, r *rail) {
	d := rs.dev
	cfg := &d.net.cfg
	pend.attempts++
	now := d.net.nowNs()
	if pend.attempts == 1 {
		pend.sentNs = now
	}
	shift := uint(pend.attempts - 1)
	if shift > backoffCapShift {
		shift = backoffCapShift
	}
	backoff := cfg.RetransmitTimeoutNs << shift
	backoff += tl.rng.Int63n(backoff/2+1) - backoff/4 // ±25% jitter
	pend.dueNs = now + backoff
	if tl.nextDue == 0 || pend.dueNs < tl.nextDue {
		tl.nextDue = pend.dueNs
	}
	rs.lowerDue(pend.dueNs)

	copies := 1
	var extraNs int64
	corrupt := false
	if f := &cfg.Faults; f.Active() {
		if f.DropProb > 0 && tl.rng.Float64() < f.DropProb {
			d.faultDropped.Add(1)
			return // lost on the wire; the retransmit timer recovers it
		}
		if f.DupProb > 0 && tl.rng.Float64() < f.DupProb {
			copies = 2
			d.faultDuplicated.Add(1)
		}
		if f.CorruptProb > 0 && tl.rng.Float64() < f.CorruptProb {
			corrupt = true
			d.faultCorrupted.Add(1)
		}
		if f.SpikeProb > 0 && tl.rng.Float64() < f.SpikeProb {
			extraNs = f.SpikeNs
			d.latencySpikes.Add(1)
		}
	}
	for i := 0; i < copies; i++ {
		w := d.clonePacket(&pend.pkt)
		w.relAck = rs.rx[pend.pkt.Dst].cum.Load()
		rs.rx[pend.pkt.Dst].ackOwedNs.Store(0) // this transmission carries the ack
		// The checksum only defends against injected corruption; when none is
		// configured, skip the per-byte hashing on both ends (faults-off ARQ
		// must cost near nothing).
		if cfg.Faults.CorruptProb > 0 {
			w.sum = packetChecksum(w)
		}
		if corrupt && i == 0 {
			corruptPacket(w, tl.rng)
		}
		// Retransmissions and duplicates bypass the backpressure cap: ARQ
		// liveness must not depend on queue headroom.
		d.enqueue(r, w, extraNs)
	}
}

// admit filters one popped packet through the reliability layer. It returns
// true when the packet should be delivered to the upper layer, false when
// the ARQ consumed it (corrupt, duplicate, or ack-only).
func (rs *relState) admit(p *Packet) bool {
	d := rs.dev
	if p.relFlags&flagRel == 0 {
		return true // unframed packet (reliability toggled off-network); deliver
	}
	if d.net.cfg.Faults.CorruptProb > 0 {
		sum := p.sum
		p.sum = 0
		if packetChecksum(p) != sum {
			d.corruptDropped.Add(1)
			return false // cannot trust any field, not even relAck
		}
		p.sum = sum
	}

	// Process the piggybacked cumulative ack for the reverse direction.
	tl := rs.tx[p.Src]
	if !rs.buffered {
		for {
			cur := tl.ackF.Load()
			if p.relAck <= cur || tl.ackF.CompareAndSwap(cur, p.relAck) {
				break
			}
		}
		// Complete the outstanding RTT probe once the cumulative ack passes
		// it; the CAS elects a single claimant among concurrent pollers.
		if s := tl.sampleSeq.Load(); s != 0 && p.relAck >= s && tl.sampleSeq.CompareAndSwap(s, 0) {
			tl.observeRTT(d.net.nowNs() - tl.sampleNs.Load())
		}
	} else {
		tl.mu.Lock()
		if p.relAck > tl.maxAcked && !tl.down {
			if len(tl.unacked) > 0 {
				now := d.net.nowNs()
				for s := tl.maxAcked + 1; s <= p.relAck; s++ {
					if pend, ok := tl.unacked[s]; ok {
						if pend.attempts == 1 {
							// Karn's rule: only never-retransmitted packets
							// yield RTT samples (a retransmitted ack is
							// ambiguous about which attempt it answers).
							tl.observeRTT(now - pend.sentNs)
						}
						delete(tl.unacked, s)
						pend.next = tl.free
						tl.free = pend
					}
				}
			}
			tl.maxAcked = p.relAck
			tl.noteAckProgressLocked()
		}
		tl.mu.Unlock()
	}

	if p.relFlags&flagSeq == 0 {
		return false // ack-only packet, fully consumed
	}

	rxl := rs.rx[p.Src]
	rxl.mu.Lock()
	seq := p.relSeq
	cum := rxl.cum.Load()
	fresh := false
	if seq > cum {
		if _, dup := rxl.ooo[seq]; !dup {
			fresh = true
			if seq == cum+1 {
				cum++
				for {
					if _, ok := rxl.ooo[cum+1]; !ok {
						break
					}
					delete(rxl.ooo, cum+1)
					cum++
				}
				rxl.cum.Store(cum)
			} else {
				rxl.ooo[seq] = struct{}{}
			}
		}
	}
	// Fresh or duplicate, the sender needs an ack (a duplicate usually means
	// our previous ack was lost).
	if rxl.ackOwedNs.Load() == 0 {
		now := d.net.nowNs()
		rxl.ackOwedNs.Store(now)
		rs.lowerDue(now + d.net.cfg.AckDelayNs)
	}
	rxl.mu.Unlock()
	if !fresh {
		d.dupDropped.Add(1)
		return false
	}
	return true
}

// maintain runs the time-gated sender-side duties from Poll: retransmit due
// packets, declare links down, and send standalone acks for idle links. A
// CAS on dueNs elects one poller per pass, keeping the hot path at a single
// atomic load when nothing is due. It returns its clock reading, which the
// calling Poll decides arrivals against.
func (rs *relState) maintain() int64 {
	d := rs.dev
	now := d.net.nowNs()
	due := rs.dueNs.Load()
	if now < due {
		return now
	}
	entry := now + rs.granuleNs
	if !rs.dueNs.CompareAndSwap(due, entry) {
		return now
	}
	cfg := &d.net.cfg
	next := now + int64(1_000_000_000) // idle horizon; lowered by real work

	for dst, tl := range rs.tx {
		if !rs.buffered {
			break // nothing retained, nothing to retransmit
		}
		tl.mu.Lock()
		if tl.down || len(tl.unacked) == 0 {
			tl.mu.Unlock()
			continue
		}
		if tl.nextDue > now {
			// The earliest possible retransmission is still in the future:
			// skip the window scan (the common case under healthy acking —
			// this keeps maintenance O(1) rather than O(window) per pass).
			if tl.nextDue < next {
				next = tl.nextDue
			}
			tl.mu.Unlock()
			continue
		}
		linkNext := int64(1) << 62
		for _, pend := range tl.unacked {
			if pend.dueNs > now {
				if pend.dueNs < linkNext {
					linkNext = pend.dueNs
				}
				continue
			}
			if pend.attempts >= cfg.RetryBudget {
				// Retry budget exhausted: the peer (or the path to it) is
				// gone. Drop the window and blackhole the link.
				tl.down = true
				tl.unacked = make(map[uint64]*relPending)
				d.linksDowned.Add(1)
				break
			}
			tl.noteRetransmitLocked()
			d.retransmits.Add(1)
			rs.transmitLocked(tl, pend, d.railFor(dst, 0))
			if pend.dueNs < linkNext {
				linkNext = pend.dueNs
			}
		}
		if !tl.down {
			tl.nextDue = linkNext
			if linkNext < next {
				next = linkNext
			}
		}
		tl.mu.Unlock()
	}

	for src, rxl := range rs.rx {
		owed := rxl.ackOwedNs.Load()
		if owed == 0 {
			continue
		}
		if now-owed < cfg.AckDelayNs {
			if t := owed + cfg.AckDelayNs; t < next {
				next = t
			}
			continue
		}
		rxl.ackOwedNs.Store(0)
		rs.sendAck(src)
	}

	if next > entry {
		// Nothing due before the horizon: push the next pass out (an inject
		// or arrival lowers it again via lowerDue).
		rs.dueNs.CompareAndSwap(entry, next)
	} else {
		rs.lowerDue(next)
	}
	return now
}

// sendAck emits one standalone ack-only packet to dst, subject to the same
// drop/spike faults as data (a lost ack is recovered by the sender's
// retransmission provoking a fresh duplicate ack).
func (rs *relState) sendAck(dst int) {
	d := rs.dev
	tl := rs.tx[dst]
	var extraNs int64
	if !rs.buffered {
		if tl.downF.Load() {
			return
		}
	} else {
		tl.mu.Lock()
		defer tl.mu.Unlock()
		if tl.down {
			return
		}
		if f := &d.net.cfg.Faults; f.Active() {
			if f.DropProb > 0 && tl.rng.Float64() < f.DropProb {
				d.faultDropped.Add(1)
				return
			}
			if f.SpikeProb > 0 && tl.rng.Float64() < f.SpikeProb {
				extraNs = f.SpikeNs
				d.latencySpikes.Add(1)
			}
		}
	}
	w := d.getPacket()
	w.Src, w.Dst, w.Op = d.node, dst, opAck
	w.relFlags = flagRel
	w.relAck = rs.rx[dst].cum.Load()
	if d.net.cfg.Faults.CorruptProb > 0 {
		w.sum = packetChecksum(w)
	}
	d.enqueue(d.railFor(dst, 0), w, extraNs)
	d.acksSent.Add(1)
}

// setDown administratively cuts the directed link to dst (test hook and
// partition simulation).
func (rs *relState) setDown(dst int) {
	tl := rs.tx[dst]
	if !rs.buffered {
		if tl.downF.CompareAndSwap(false, true) {
			rs.dev.linksDowned.Add(1)
		}
		return
	}
	tl.mu.Lock()
	if !tl.down {
		tl.down = true
		tl.unacked = make(map[uint64]*relPending)
		tl.maxAcked = tl.nextSeq
		rs.dev.linksDowned.Add(1)
	}
	tl.mu.Unlock()
}

// health reports the directed link's health toward dst.
func (rs *relState) health(dst int) Health {
	tl := rs.tx[dst]
	if !rs.buffered {
		// A lossless link cannot degrade; only SetLinkDown kills it.
		if tl.downF.Load() {
			return HealthDown
		}
		return HealthHealthy
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	switch {
	case tl.down:
		return HealthDown
	case tl.degraded:
		return HealthDegraded
	default:
		return HealthHealthy
	}
}

// rttNs reports the smoothed ack round-trip estimate toward dst
// (0 = no sample yet).
func (rs *relState) rttNs(dst int) int64 {
	if dst < 0 || dst >= len(rs.tx) {
		return 0
	}
	return rs.tx[dst].rttEwma.Load()
}

// unackedTo reports the unacked window size toward dst (tests).
func (rs *relState) unackedTo(dst int) int {
	tl := rs.tx[dst]
	if !rs.buffered {
		// The lossless fast path retains no packets; the window is the
		// contiguous gap between what was sent and what was acked.
		if tl.downF.Load() {
			return 0
		}
		return int(tl.seqF.Load() - tl.ackF.Load())
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.unacked)
}
