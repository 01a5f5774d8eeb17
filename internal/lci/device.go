// Package lci implements a Go analogue of the Lightweight Communication
// Interface (LCI), the communication library the paper integrates into HPX.
// It reproduces the API surface and the concurrency structure the LCI
// parcelport relies on:
//
//   - two-sided medium (eager) and long (rendezvous) send/receive with tag
//     matching,
//   - one-sided dynamic put whose target buffer is allocated by the runtime
//     on arrival and whose completion is pushed to a pre-configured
//     completion queue,
//   - completion queues (lock-free MPMC), synchronizers and handlers as
//     interchangeable completion mechanisms,
//   - a fixed pre-registered packet pool with nonblocking ErrRetry
//     backpressure,
//   - an explicit, thread-safe Progress function built from try-locks and
//     atomics (no coarse-grained blocking lock).
//
// The library sits on internal/fabric, the simulated interconnect.
package lci

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hpxgo/internal/fabric"
	"hpxgo/internal/ring"
)

// ErrRetry is returned by nonblocking operations when a resource (packet
// pool slot, injection queue, handle table) is temporarily exhausted. The
// caller decides when to retry, per LCI's explicit-control philosophy.
var ErrRetry = errors.New("lci: resource temporarily unavailable, retry")

// AnyRank matches messages from any source in Recvm/Recvl.
const AnyRank = -1

// Wire opcodes carried in fabric packets.
const (
	opMedium    uint8 = iota + 1 // eager two-sided message
	opPut                        // one-sided dynamic put
	opRTS                        // rendezvous request-to-send
	opCTS                        // rendezvous clear-to-send
	opLongData                   // rendezvous payload
	opLongChunk                  // rendezvous payload chunk (striped across rails)
	opLongFin                    // rendezvous remote-completion notification
)

// DefaultChunkSize is the rendezvous chunk size when Config.ChunkSize is
// zero. It matches the fabric pool's maximum recycled payload (64 KiB): a
// chunk of this size is copied into a pooled buffer on inject and the
// buffer is recycled on release, so the steady-state chunk stream is
// allocation-free; one byte more and every chunk's payload would fall to
// the garbage collector.
const DefaultChunkSize = 64 << 10

// Config tunes a Device.
type Config struct {
	// EagerThreshold is the maximum medium-message payload (bytes). Larger
	// transfers must use the long (rendezvous) protocol. Default 8192,
	// matching LCI's default packet size and HPX's default zero-copy
	// serialization threshold.
	EagerThreshold int
	// PoolPackets is the number of pre-registered packet buffers.
	// Default 1024 (8 MiB of packet memory at the default EagerThreshold,
	// so large simulated clusters stay within host memory).
	PoolPackets int
	// MaxLongHandles bounds concurrent rendezvous operations per side.
	// Default 4096.
	MaxLongHandles int
	// ChunkSize is the rendezvous chunk size: a long payload larger than
	// this is split into ChunkSize pieces striped across the fabric rails
	// instead of travelling as one monolithic opLongData packet. Default
	// DefaultChunkSize (64 KiB, the fabric pool's recycling limit).
	ChunkSize int
	// StripeWidth bounds how many rails one chunked transfer spreads
	// across. Zero (or anything above the rail count) means all rails.
	StripeWidth int
	// SingleBlobLong disables chunking entirely and restores the
	// pre-chunking monolithic opLongData path. It exists as the oracle and
	// baseline for the chunked protocol: benchmarks measure striping
	// speedup against it, and property tests check byte-identical results.
	SingleBlobLong bool
}

func (c *Config) fillDefaults() {
	if c.EagerThreshold <= 0 {
		c.EagerThreshold = 8192
	}
	if c.PoolPackets <= 0 {
		c.PoolPackets = 1024
	}
	if c.MaxLongHandles <= 0 {
		c.MaxLongHandles = 4096
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
}

// Packet is a pre-registered communication buffer from the device pool.
// Callers assemble message contents directly in Data (saving a copy, as the
// LCI parcelport does for header messages) and hand the packet to PutdPacket
// or SendmPacket, which return it to the pool.
type Packet struct {
	Data []byte // full capacity EagerThreshold bytes
	dev  *Device
}

// Stats are cumulative device counters.
type Stats struct {
	MediumSent    uint64
	MediumRecvd   uint64
	PutsSent      uint64
	PutsRecvd     uint64
	LongSent      uint64
	LongRecvd     uint64
	Retries       uint64
	ProgressCalls uint64
	Unexpected    uint64 // messages that arrived before their receive was posted
}

// Device is an LCI communication endpoint bound to one fabric device. All
// methods are safe for concurrent use by multiple goroutines.
type Device struct {
	cfg   Config
	fdev  *fabric.Device
	rank  int
	putCQ *CompQueue // pre-configured remote-completion queue for puts

	pool *ring.MPMC[*Packet]

	match *matchTable

	sendHandles *handleTable[longSend]
	recvHandles *handleTable[longRecv]

	def deferred // backpressured injections awaiting retry

	// prPool recycles postedRecv records so the steady-state Recvm/Recvl →
	// deliver cycle allocates nothing; waves recycles the scratch packet
	// arrays streamChunks builds its InjectBatch calls in (a stack array
	// would escape through the batch-call slice).
	prPool *ring.MPMC[*postedRecv]
	waves  *ring.MPMC[*[chunkWave]fabric.Packet]

	stats struct {
		mediumSent    atomic.Uint64
		mediumRecvd   atomic.Uint64
		putsSent      atomic.Uint64
		putsRecvd     atomic.Uint64
		longSent      atomic.Uint64
		longRecvd     atomic.Uint64
		retries       atomic.Uint64
		progressCalls atomic.Uint64
		unexpected    atomic.Uint64
	}
}

// NewDevice creates a device on top of a fabric device. putCQ is the
// pre-configured completion queue that receives remote completions of
// dynamic puts; if nil a fresh queue is created (retrievable via PutCQ).
// This "pre-configured CQ only" restriction for puts is faithful to the LCI
// version used in the paper.
func NewDevice(fdev *fabric.Device, cfg Config, putCQ *CompQueue) *Device {
	cfg.fillDefaults()
	if rails := fdev.Rails(); cfg.StripeWidth <= 0 || cfg.StripeWidth > rails {
		cfg.StripeWidth = rails
	}
	if putCQ == nil {
		putCQ = NewCompQueue(0)
	}
	d := &Device{
		cfg:    cfg,
		fdev:   fdev,
		rank:   fdev.Node(),
		putCQ:  putCQ,
		pool:   ring.New[*Packet](cfg.PoolPackets),
		match:  newMatchTable(),
		prPool: ring.New[*postedRecv](prPoolCap),
		waves:  ring.New[*[chunkWave]fabric.Packet](wavePoolCap),
	}
	for i := 0; i < cfg.PoolPackets; i++ {
		d.pool.TryPush(&Packet{Data: make([]byte, cfg.EagerThreshold), dev: d})
	}
	d.sendHandles = newHandleTable[longSend](cfg.MaxLongHandles)
	d.recvHandles = newHandleTable[longRecv](cfg.MaxLongHandles)
	return d
}

// prPoolCap / wavePoolCap bound the recycled postedRecv records and chunk
// wave buffers kept per device; both pools fill lazily and overflow to the
// garbage collector.
const (
	prPoolCap   = 1024
	wavePoolCap = 64
)

// getPR takes a recycled postedRecv (or allocates one on a miss).
func (d *Device) getPR() *postedRecv {
	if pr, ok := d.prPool.TryPop(); ok {
		return pr
	}
	return &postedRecv{}
}

// putPR zeroes a consumed postedRecv and returns it to the pool. Callers
// must hold the only reference: a record parked in the match table (or
// re-queued by postRecvFront) is still live and must not be recycled.
func (d *Device) putPR(pr *postedRecv) {
	*pr = postedRecv{}
	d.prPool.TryPush(pr)
}

// getWave / putWave recycle the scratch arrays streamChunks assembles its
// injection batches in.
func (d *Device) getWave() *[chunkWave]fabric.Packet {
	if w, ok := d.waves.TryPop(); ok {
		return w
	}
	return new([chunkWave]fabric.Packet)
}

func (d *Device) putWave(w *[chunkWave]fabric.Packet) {
	*w = [chunkWave]fabric.Packet{} // drop payload sub-slice references
	d.waves.TryPush(w)
}

// chunkPlan decides how a long payload of the given size travels: chunked
// (chunk size + stripe width) or, when chunking is disabled or the payload
// fits a single chunk, as the monolithic opLongData blob (chunkSize 0).
func (d *Device) chunkPlan(size int) (chunkSize, stripe int) {
	if d.cfg.SingleBlobLong || size <= d.cfg.ChunkSize {
		return 0, 0
	}
	return d.cfg.ChunkSize, d.cfg.StripeWidth
}

// Rank returns this device's node id.
func (d *Device) Rank() int { return d.rank }

// EagerThreshold returns the configured medium-message size limit.
func (d *Device) EagerThreshold() int { return d.cfg.EagerThreshold }

// PutCQ returns the pre-configured completion queue for dynamic puts.
func (d *Device) PutCQ() *CompQueue { return d.putCQ }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		MediumSent:    d.stats.mediumSent.Load(),
		MediumRecvd:   d.stats.mediumRecvd.Load(),
		PutsSent:      d.stats.putsSent.Load(),
		PutsRecvd:     d.stats.putsRecvd.Load(),
		LongSent:      d.stats.longSent.Load(),
		LongRecvd:     d.stats.longRecvd.Load(),
		Retries:       d.stats.retries.Load(),
		ProgressCalls: d.stats.progressCalls.Load(),
		Unexpected:    d.stats.unexpected.Load(),
	}
}

// GetPacket takes a pre-registered packet from the pool, or returns ErrRetry
// when the pool is exhausted.
func (d *Device) GetPacket() (*Packet, error) {
	p, ok := d.pool.TryPop()
	if !ok {
		d.stats.retries.Add(1)
		return nil, ErrRetry
	}
	p.Data = p.Data[:cap(p.Data)]
	return p, nil
}

// PutPacket returns an unused packet to the pool.
func (d *Device) PutPacket(p *Packet) {
	if p == nil || p.dev != d {
		return
	}
	d.pool.TryPush(p) // pool is sized to hold all packets; push cannot fail
}

// Sendm posts a medium (eager) send of data to dst with the given tag and
// signals comp locally once the buffer may be reused. Returns ErrRetry under
// resource exhaustion; the data must fit EagerThreshold.
func (d *Device) Sendm(dst int, tag uint32, data []byte, comp Comp, ctx any) error {
	if len(data) > d.cfg.EagerThreshold {
		return fmt.Errorf("lci: medium send of %d bytes exceeds eager threshold %d", len(data), d.cfg.EagerThreshold)
	}
	err := d.fdev.Inject(fabric.Packet{Dst: dst, Op: opMedium, T0: uint64(tag), Data: data})
	if err != nil {
		if errors.Is(err, fabric.ErrBackpressure) {
			d.stats.retries.Add(1)
			return ErrRetry
		}
		return err
	}
	d.stats.mediumSent.Add(1)
	if comp != nil {
		comp.signal(Request{Type: CompSend, Rank: dst, Tag: tag, Ctx: ctx})
	}
	return nil
}

// SendmPacket sends the first n bytes of a pool packet as a medium message
// and returns the packet to the pool. The packet contents were assembled in
// place, saving the user-to-library copy.
func (d *Device) SendmPacket(dst int, tag uint32, p *Packet, n int, comp Comp, ctx any) error {
	err := d.Sendm(dst, tag, p.Data[:n], comp, ctx)
	if err == nil {
		d.PutPacket(p)
	}
	return err
}

// Recvm posts a medium receive into buf for a message from src (or AnyRank)
// with the given tag. comp is signalled with the trimmed buffer when the
// message arrives.
func (d *Device) Recvm(src int, tag uint32, buf []byte, comp Comp, ctx any) error {
	pr := d.getPR()
	pr.src, pr.tag, pr.buf, pr.comp, pr.ctx, pr.long = src, tag, buf, comp, ctx, false
	if um := d.match.postRecv(kindMedium, src, tag, pr); um != nil {
		d.deliverMedium(um, pr)
	}
	return nil
}

// Putd performs a one-sided dynamic put: the target runtime allocates a
// buffer on arrival and pushes a CompPut record carrying `meta` to the
// target's pre-configured completion queue. There is no local completion;
// the source buffer may be reused on return (the fabric copies it).
func (d *Device) Putd(dst int, meta uint32, data []byte) error {
	err := d.fdev.Inject(fabric.Packet{Dst: dst, Op: opPut, T0: uint64(meta), Data: data})
	if err != nil {
		if errors.Is(err, fabric.ErrBackpressure) {
			d.stats.retries.Add(1)
			return ErrRetry
		}
		return err
	}
	d.stats.putsSent.Add(1)
	return nil
}

// PutdPacket sends the first n bytes of a pool packet as a dynamic put and
// returns the packet to the pool.
func (d *Device) PutdPacket(dst int, meta uint32, p *Packet, n int) error {
	err := d.Putd(dst, meta, p.Data[:n])
	if err == nil {
		d.PutPacket(p)
	}
	return err
}

// Sendl posts a long (rendezvous) send. comp is signalled once the payload
// buffer is reusable: for a chunked transfer the chunks travel zero-copy
// out of data, so completion waits for the receiver's opLongFin (every
// chunk copied out); the monolithic single-blob path copies at injection
// and completes as soon as the payload is handed to the fabric. Either
// way, data must stay untouched until comp fires.
func (d *Device) Sendl(dst int, tag uint32, data []byte, comp Comp, ctx any) error {
	h, idx, ok := d.sendHandles.alloc()
	if !ok {
		d.stats.retries.Add(1)
		return ErrRetry
	}
	h.data = data
	h.comp = comp
	h.ctx = ctx
	h.dst = dst
	h.tag = tag
	err := d.fdev.Inject(fabric.Packet{
		Dst: dst, Op: opRTS,
		T0: uint64(tag),
		T1: uint64(idx)<<32 | uint64(uint32(len(data))),
	})
	if err != nil {
		d.sendHandles.release(idx)
		if errors.Is(err, fabric.ErrBackpressure) {
			d.stats.retries.Add(1)
			return ErrRetry
		}
		return err
	}
	return nil
}

// Recvl posts a long (rendezvous) receive into buf. comp is signalled with
// the trimmed buffer once the payload has landed.
func (d *Device) Recvl(src int, tag uint32, buf []byte, comp Comp, ctx any) error {
	pr := d.getPR()
	pr.src, pr.tag, pr.buf, pr.comp, pr.ctx, pr.long = src, tag, buf, comp, ctx, true
	if um := d.match.postRecv(kindLong, src, tag, pr); um != nil {
		return d.acceptRTS(um, pr)
	}
	return nil
}

// deliverMedium copies an arrived eager message into the posted buffer,
// signals completion and returns the packet to the fabric pool. Callers must
// not touch pkt afterwards.
func (d *Device) deliverMedium(pkt *fabric.Packet, pr *postedRecv) {
	n := copy(pr.buf, pkt.Data)
	src, tag := pkt.Src, uint32(pkt.T0)
	pkt.Release()
	d.stats.mediumRecvd.Add(1)
	if pr.comp != nil {
		pr.comp.signal(Request{Type: CompRecv, Rank: src, Tag: tag, Data: pr.buf[:n], Ctx: pr.ctx})
	}
	d.putPR(pr)
}

// acceptRTS matches a rendezvous RTS with a posted long receive: allocate a
// receive handle and reply clear-to-send.
func (d *Device) acceptRTS(rts *fabric.Packet, pr *postedRecv) error {
	h, idx, ok := d.recvHandles.alloc()
	if !ok {
		// Re-queue the RTS as unexpected and report retry pressure: the next
		// posted receive will pick it up once handles free.
		d.match.pushUnexpected(kindLong, rts.Src, uint32(rts.T0), rts)
		d.match.postRecvFront(kindLong, pr.src, pr.tag, pr)
		d.stats.retries.Add(1)
		return ErrRetry
	}
	h.buf = pr.buf
	h.comp = pr.comp
	h.ctx = pr.ctx
	h.src = rts.Src
	h.tag = uint32(rts.T0)
	// Arm chunked reassembly: the RTS's low word announces the payload
	// size, which is the byte budget the completion counter counts down —
	// correct whether the payload then arrives as one opLongData blob or as
	// out-of-order opLongChunk pieces.
	h.expect = int(uint32(rts.T1))
	atomic.StoreInt64(&h.remaining, int64(h.expect))
	sendIdx := uint32(rts.T1 >> 32)
	h.sendIdx = sendIdx
	cts := fabric.Packet{Dst: rts.Src, Op: opCTS, T0: uint64(sendIdx), T1: uint64(idx)}
	rts.Release()
	d.putPR(pr)
	if err := d.fdev.Inject(cts); err != nil {
		if errors.Is(err, fabric.ErrBackpressure) {
			// Losing the CTS would deadlock the rendezvous: neither side
			// retransmits it. Park it on the deferred-work list and let the
			// next Progress pass retry until the reverse rail drains.
			d.stats.retries.Add(1)
			d.deferControl(cts)
			return nil
		}
		d.recvHandles.release(idx)
		return err
	}
	return nil
}
