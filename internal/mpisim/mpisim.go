// Package mpisim implements an MPI-like message-passing library on top of
// the simulated fabric, standing in for OpenMPI/UCX in the paper's testbeds.
// It provides the subset the HPX MPI parcelport uses: nonblocking two-sided
// send/receive with tag matching, wildcard source, an eager protocol for
// small messages and a rendezvous protocol for large ones, and request
// objects completed by Test/Wait.
//
// The library is initialized in (the analogue of) MPI_THREAD_MULTIPLE: any
// goroutine may call any operation. Faithfully to the behaviour the paper
// measures — and blames for the MPI parcelport's collapse under concurrency
// ("the vast majority of time inside the MPI_Test function, spinning on the
// blocking lock of the ucp_progress function") — the entire progress engine
// is guarded by ONE coarse-grained blocking lock. Every Isend, Irecv and
// Test serializes on it. Matching uses linear scans of the posted-receive
// and unexpected-message queues, as real MPI implementations effectively do
// for wildcard-heavy workloads.
package mpisim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/fabric"
)

// Wildcards and tag bounds.
const (
	// AnySource matches a receive against any sender rank.
	AnySource = -1
	// AnyTag matches a receive against any tag.
	AnyTag = -1
	// TagUB is the exclusive upper bound for tags, mirroring MPI_TAG_UB.
	TagUB = 1 << 20
)

// Wire opcodes.
const (
	opEager uint8 = iota + 1
	opRTS
	opCTS
	opRData
)

// Config tunes the library.
type Config struct {
	// EagerThreshold is the largest payload sent eagerly. Above it the
	// rendezvous protocol adds a round trip — modelling the UCX protocol
	// switch the paper suspects behind the MPI latency jump for >1KiB
	// messages (Fig. 7). Default 1024.
	EagerThreshold int
}

// maxPendingRndv bounds concurrent rendezvous sends per communicator.
const maxPendingRndv = 1 << 16

func (c *Config) fillDefaults() {
	if c.EagerThreshold <= 0 {
		c.EagerThreshold = 1024
	}
}

// World is the set of communicators, one per fabric node (like
// MPI_COMM_WORLD split over ranks).
type World struct {
	cfg   Config
	comms []*Comm
}

// NewWorld creates one communicator per node of the network.
func NewWorld(net *fabric.Network, cfg Config) *World {
	cfg.fillDefaults()
	w := &World{cfg: cfg}
	n := net.Config().Nodes
	w.comms = make([]*Comm, n)
	for i := 0; i < n; i++ {
		c := &Comm{
			world:       w,
			rank:        i,
			size:        n,
			dev:         net.Device(i),
			sendPending: make(map[uint32]*Request),
			recvPending: make(map[uint32]*Request),
			txSeq:       make([]uint64, n),
			rxSeq:       make([]uint64, n),
			rxHeld:      make([]map[uint64]*fabric.Packet, n),
		}
		for s := range c.rxHeld {
			c.rxHeld[s] = make(map[uint64]*fabric.Packet)
		}
		w.comms[i] = c
	}
	return w
}

// Comm returns the communicator of the given rank.
func (w *World) Comm(rank int) *Comm { return w.comms[rank] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes received
}

// reqKind distinguishes send and receive requests.
type reqKind uint8

const (
	kindSend reqKind = iota
	kindRecv
)

// Request is a nonblocking operation handle, the analogue of MPI_Request.
type Request struct {
	comm      *Comm
	kind      reqKind
	buf       []byte
	peer      int // destination (send) / source filter (recv, may be AnySource)
	tag       int // tag (recv may be AnyTag)
	handle    uint32
	done      atomic.Bool
	cancelled bool
	status    Status
}

// Done reports completion without driving progress (cheap atomic read).
func (r *Request) Done() bool { return r.done.Load() }

// Status returns the completion status; only valid once Done.
func (r *Request) Status() Status { return r.status }

// inbound is an unexpected arrival (eager payload or rendezvous RTS).
type inbound struct {
	src  int
	tag  int
	rts  bool
	pkt  *fabric.Packet // eager: payload; rts: the RTS packet
	size int
}

// Comm is a per-rank communicator. All state below mu is protected by the
// single coarse progress lock.
type Comm struct {
	world *World
	rank  int
	size  int
	dev   *fabric.Device

	mu         sync.Mutex // THE coarse-grained progress-engine lock
	posted     []*Request // posted receives, matched by linear scan
	unexpected []inbound  // unexpected arrivals, matched by linear scan

	sendPending map[uint32]*Request // rendezvous sends awaiting CTS
	recvPending map[uint32]*Request // rendezvous receives awaiting data
	nextHandle  uint32

	deferred []fabric.Packet // backpressured injections to retry in progress

	// MPI's non-overtaking rule requires that messages between a pair of
	// ranks match in the order they were sent, even though the fabric (like
	// real multi-rail hardware) may reorder packets. Every injected packet
	// carries a per-destination sequence number; arrivals are released to
	// the matching engine strictly in sequence, parking early packets in a
	// reorder buffer — the bookkeeping real transports (UCX, verbs RC QPs)
	// do for MPI.
	txSeq  []uint64
	rxSeq  []uint64
	rxHeld []map[uint64]*fabric.Packet

	// Profiling counters (the analogue of the paper's "time spent inside
	// MPI_Test, spinning on the blocking lock of ucp_progress").
	lockWaitNs    atomic.Int64
	lockAcquires  atomic.Uint64
	testCalls     atomic.Uint64
	progressPolls atomic.Uint64
}

// CommStats is a snapshot of a communicator's profiling counters.
type CommStats struct {
	// LockWait is the cumulative time callers spent waiting to acquire the
	// coarse progress lock.
	LockWait time.Duration
	// LockAcquires counts acquisitions of the progress lock.
	LockAcquires uint64
	// TestCalls counts Request.Test invocations.
	TestCalls uint64
	// ProgressPolls counts packets drained by the progress engine.
	ProgressPolls uint64
	// PostedRecvs and UnexpectedMsgs are the current queue lengths.
	PostedRecvs    int
	UnexpectedMsgs int
}

// Stats returns a snapshot of the communicator's profiling counters.
func (c *Comm) Stats() CommStats {
	c.lock()
	posted, unexp := len(c.posted), len(c.unexpected)
	c.mu.Unlock()
	return CommStats{
		LockWait:       time.Duration(c.lockWaitNs.Load()),
		LockAcquires:   c.lockAcquires.Load(),
		TestCalls:      c.testCalls.Load(),
		ProgressPolls:  c.progressPolls.Load(),
		PostedRecvs:    posted,
		UnexpectedMsgs: unexp,
	}
}

// lock acquires the coarse progress lock, accounting wait time.
func (c *Comm) lock() {
	if c.mu.TryLock() {
		c.lockAcquires.Add(1)
		return
	}
	start := time.Now()
	c.mu.Lock()
	c.lockWaitNs.Add(time.Since(start).Nanoseconds())
	c.lockAcquires.Add(1)
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// EagerThreshold returns the configured eager/rendezvous switch point.
func (c *Comm) EagerThreshold() int { return c.world.cfg.EagerThreshold }

// Isend starts a nonblocking send of buf to dst with the given tag. The
// buffer must not be modified until the request completes.
func (c *Comm) Isend(buf []byte, dst, tag int) (*Request, error) {
	if dst < 0 || dst >= c.size {
		return nil, fmt.Errorf("mpisim: invalid destination rank %d", dst)
	}
	if tag < 0 || tag >= TagUB {
		return nil, fmt.Errorf("mpisim: invalid tag %d", tag)
	}
	r := &Request{comm: c, kind: kindSend, buf: buf, peer: dst, tag: tag}
	c.lock()
	defer c.mu.Unlock()
	if len(buf) <= c.world.cfg.EagerThreshold {
		c.injectLocked(fabric.Packet{Dst: dst, Op: opEager, T0: uint64(tag), Data: buf})
		r.done.Store(true)
		r.status = Status{Source: c.rank, Tag: tag, Count: len(buf)}
		return r, nil
	}
	if len(c.sendPending) >= maxPendingRndv {
		return nil, errors.New("mpisim: too many pending rendezvous sends")
	}
	h := c.allocHandleLocked(c.sendPending)
	r.handle = h
	c.sendPending[h] = r
	c.injectLocked(fabric.Packet{
		Dst: dst, Op: opRTS,
		T0: uint64(tag),
		T1: uint64(h)<<32 | uint64(uint32(len(buf))),
	})
	return r, nil
}

// Irecv posts a nonblocking receive into buf from src (or AnySource) with
// the given tag (or AnyTag).
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, fmt.Errorf("mpisim: invalid source rank %d", src)
	}
	if tag != AnyTag && (tag < 0 || tag >= TagUB) {
		return nil, fmt.Errorf("mpisim: invalid tag %d", tag)
	}
	r := &Request{comm: c, kind: kindRecv, buf: buf, peer: src, tag: tag}
	c.lock()
	defer c.mu.Unlock()
	// Check the unexpected queue first (linear scan, oldest first).
	for i := range c.unexpected {
		u := &c.unexpected[i]
		if (src == AnySource || u.src == src) && (tag == AnyTag || u.tag == tag) {
			ib := *u
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			c.matchInboundLocked(r, ib)
			return r, nil
		}
	}
	c.posted = append(c.posted, r)
	return r, nil
}

// Test drives progress and reports whether the request has completed. Like
// MPI_Test it may be called repeatedly from any thread; every call takes the
// progress lock.
func (r *Request) Test() bool {
	r.comm.testCalls.Add(1)
	if r.done.Load() {
		return true
	}
	c := r.comm
	c.lock()
	c.progressLocked()
	c.mu.Unlock()
	return r.done.Load()
}

// Wait blocks (spinning on Test) until the request completes.
func (r *Request) Wait() Status {
	for !r.Test() {
	}
	return r.status
}

// Cancel removes a not-yet-matched receive request. It returns true if the
// request was cancelled, false if it already completed (or is a send).
func (r *Request) Cancel() bool {
	if r.kind != kindRecv {
		return false
	}
	c := r.comm
	c.lock()
	defer c.mu.Unlock()
	if r.done.Load() {
		return false
	}
	for i, pr := range c.posted {
		if pr == r {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			r.cancelled = true
			r.done.Store(true)
			return true
		}
	}
	return false
}

// Progress drives the engine once without testing any particular request
// (used by background loops and tests).
func (c *Comm) Progress() {
	c.lock()
	c.progressLocked()
	c.mu.Unlock()
}

// PendingCounts reports (posted receives, unexpected messages) for tests.
func (c *Comm) PendingCounts() (posted, unexpected int) {
	c.lock()
	defer c.mu.Unlock()
	return len(c.posted), len(c.unexpected)
}

// --- internals (all called with c.mu held) ---

// allocHandleLocked finds an unused handle id in m.
func (c *Comm) allocHandleLocked(m map[uint32]*Request) uint32 {
	for {
		c.nextHandle++
		if _, taken := m[c.nextHandle]; !taken && c.nextHandle != 0 {
			return c.nextHandle
		}
	}
}

// injectLocked sends a packet, deferring it on backpressure. MPI has no
// user-visible retry semantics, so backpressure is absorbed internally.
// Every packet is stamped with the per-destination sequence number that
// enforces non-overtaking at the receiver.
func (c *Comm) injectLocked(p fabric.Packet) {
	p.T2 = c.txSeq[p.Dst]
	c.txSeq[p.Dst]++
	if len(c.deferred) > 0 {
		// Preserve injection order behind already-deferred packets.
		c.deferred = append(c.deferred, clonePacket(p))
		return
	}
	if err := c.dev.Inject(p); err != nil {
		c.deferred = append(c.deferred, clonePacket(p))
	}
}

// clonePacket copies the payload so deferred packets survive buffer reuse.
// (Eager sends complete immediately, allowing the caller to reuse buf.)
func clonePacket(p fabric.Packet) fabric.Packet {
	if len(p.Data) > 0 {
		d := make([]byte, len(p.Data))
		copy(d, p.Data)
		p.Data = d
	}
	return p
}

const progressBatch = 64

// progressLocked drains deferred injections and arrived packets.
func (c *Comm) progressLocked() {
	if len(c.deferred) > 0 {
		// Batch-inject the backlog: consecutive same-destination packets share
		// one rail-lock acquisition. On backpressure n stops short and the
		// remainder stays queued in order.
		n, _ := c.dev.InjectBatch(c.deferred)
		if n > 0 {
			rem := copy(c.deferred, c.deferred[n:])
			for i := rem; i < len(c.deferred); i++ {
				c.deferred[i] = fabric.Packet{}
			}
			c.deferred = c.deferred[:rem]
		}
	}
	for i := 0; i < progressBatch; i++ {
		pkt := c.dev.Poll()
		if pkt == nil {
			return
		}
		c.progressPolls.Add(1)
		c.admitLocked(pkt)
	}
}

// admitLocked releases arrivals to the matching engine in per-source
// sequence order, holding early packets until their predecessors land.
func (c *Comm) admitLocked(pkt *fabric.Packet) {
	src := pkt.Src
	if pkt.T2 != c.rxSeq[src] {
		c.rxHeld[src][pkt.T2] = pkt
		return
	}
	c.dispatchLocked(pkt)
	c.rxSeq[src]++
	for {
		next, ok := c.rxHeld[src][c.rxSeq[src]]
		if !ok {
			return
		}
		delete(c.rxHeld[src], c.rxSeq[src])
		c.dispatchLocked(next)
		c.rxSeq[src]++
	}
}

func (c *Comm) dispatchLocked(pkt *fabric.Packet) {
	switch pkt.Op {
	case opEager:
		ib := inbound{src: pkt.Src, tag: int(pkt.T0), pkt: pkt, size: len(pkt.Data)}
		if r := c.findPostedLocked(ib.src, ib.tag); r != nil {
			c.matchInboundLocked(r, ib)
		} else {
			c.unexpected = append(c.unexpected, ib)
		}
	case opRTS:
		ib := inbound{src: pkt.Src, tag: int(pkt.T0), rts: true, pkt: pkt, size: int(uint32(pkt.T1))}
		if r := c.findPostedLocked(ib.src, ib.tag); r != nil {
			c.matchInboundLocked(r, ib)
		} else {
			c.unexpected = append(c.unexpected, ib)
		}
	case opCTS:
		h := uint32(pkt.T0)
		recvH := uint32(pkt.T1)
		src := pkt.Src
		pkt.Release()
		r := c.sendPending[h]
		if r == nil {
			return // duplicate/late CTS: ignore
		}
		delete(c.sendPending, h)
		c.injectLocked(fabric.Packet{Dst: src, Op: opRData, T0: uint64(recvH), Data: r.buf})
		r.status = Status{Source: c.rank, Tag: r.tag, Count: len(r.buf)}
		r.done.Store(true)
	case opRData:
		h := uint32(pkt.T0)
		r := c.recvPending[h]
		if r == nil {
			pkt.Release()
			return
		}
		delete(c.recvPending, h)
		// Source and Tag were recorded at match time (they may have come
		// from wildcards); only the byte count is new here.
		r.status.Count = copy(r.buf, pkt.Data)
		pkt.Release()
		r.done.Store(true)
	}
}

// findPostedLocked scans the posted queue for the first matching receive and
// removes it.
func (c *Comm) findPostedLocked(src, tag int) *Request {
	for i, r := range c.posted {
		if (r.peer == AnySource || r.peer == src) && (r.tag == AnyTag || r.tag == tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// matchInboundLocked completes a receive against an inbound eager payload or
// starts the rendezvous acceptance for an RTS.
func (c *Comm) matchInboundLocked(r *Request, ib inbound) {
	if !ib.rts {
		n := copy(r.buf, ib.pkt.Data)
		ib.pkt.Release()
		r.status = Status{Source: ib.src, Tag: ib.tag, Count: n}
		r.done.Store(true)
		return
	}
	h := c.allocHandleLocked(c.recvPending)
	r.handle = h
	r.status = Status{Source: ib.src, Tag: ib.tag}
	c.recvPending[h] = r
	sendH := uint32(ib.pkt.T1 >> 32)
	ib.pkt.Release()
	c.injectLocked(fabric.Packet{Dst: ib.src, Op: opCTS, T0: uint64(sendH), T1: uint64(h)})
}
