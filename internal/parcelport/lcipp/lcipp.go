// Package lcipp implements the LCI parcelport of §3.2 of the paper, the
// system contribution being reproduced, on top of internal/lci.
//
// Baseline behaviour (lci_psr_cq_pin): the header message is assembled
// directly in an LCI-allocated packet buffer (saving a copy) and transferred
// with the one-sided dynamic put, completing into the pre-configured
// completion queue at the target. Follow-up chunks use two-sided medium
// (eager) or long (rendezvous) send/receive — each follow-up message on its
// own tag from a shared atomic counter, because LCI does not guarantee
// in-order delivery. A message with no follow-ups — everything rode the
// header — needs neither tags nor a connection on either side: it leaves as
// the one header post and is delivered from the one completion record.
// Completions drain through completion queues, so there
// is no pending-connection list to poll round-robin. A dedicated progress
// thread, created through the scheduler's resource-partitioner analogue,
// drives the LCI progress engine and, through the progress hook, the rest of
// the locality's background pass (SetProgressHook).
//
// Every §3.2.2 research variant is available through Config:
//
//   - Protocol sendrecv ("sr"): the header goes through two-sided
//     send/receive with one wildcard receive kept posted, like the MPI
//     parcelport.
//   - Completion synchronizer ("sy"): operations complete into per-op
//     synchronizers held in a round-robin-polled pending list. Header puts
//     still complete through the pre-configured CQ (an LCI limitation the
//     paper notes).
//   - Progress worker ("mt"): no dedicated progress thread; idle worker
//     threads call the thread-safe progress function.
package lcipp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// headerMsgTag is the tag of header messages in the sendrecv protocol.
const headerMsgTag = 0

// tagBound is the tag-space bound shared by sender and receiver (they must
// agree for the block arithmetic of TagAllocator.Nth to match).
const tagBound = 1 << 20

// Config tunes the LCI parcelport.
type Config struct {
	Protocol   parcelport.Protocol
	Completion parcelport.Completion
	Progress   parcelport.ProgressMode
}

// drainBatch is the shared completion budget of one background drain pass:
// at most this many completion records are popped and dispatched across ALL
// completion queues (every device's put CQ plus the shared op CQ),
// round-robin interleaved so a hot put stream cannot starve operation
// completions.
const drainBatch = 32

// headerCtx marks completions of the per-device wildcard header receive.
type headerCtx struct{ dev int }

// Stats are cumulative parcelport counters.
type Stats struct {
	MessagesSent  uint64
	MessagesRecvd uint64
	SendRetries   uint64 // posts backpressured into the retry list
	SyncPolls     uint64 // synchronizer-list scans (sy mode)
}

// Parcelport is the LCI parcelport of one locality.
type Parcelport struct {
	cfg     Config
	devs    []*lci.Device // one LCI device per replicated network context
	sched   *amt.Scheduler
	deliver parcelport.DeliverFunc

	tags *parcelport.TagAllocator

	// maxHeader is MaxHeaderSize, fixed when the parcelport is created
	// (device eager thresholds never change).
	maxHeader int
	// sendRR round-robins connectionless sends across the devices.
	sendRR atomic.Uint32

	// putCQs[i] is device i's pre-configured put completion queue (header
	// arrivals in the putsendrecv protocol).
	putCQs []*lci.CompQueue
	// opCQ collects tracked send/receive completions (cq mode). Baseline
	// single-device operation shares one queue with the puts, preserving
	// the paper's "poll one completion queue" property.
	opCQ *lci.CompQueue

	// cqs/cqDevs is the flattened drain set — every put CQ plus, when
	// distinct, the shared op CQ — with the device index dispatch needs for
	// each queue's records. drainCur rotates the round-robin starting queue
	// across passes so no queue is systematically served first.
	cqs      []*lci.CompQueue
	cqDevs   []int
	drainCur atomic.Uint32

	// syncMu guards the pending synchronizer list (sy mode), polled
	// round-robin like the MPI parcelport's connection list.
	syncMu   sync.Mutex
	pendSync []*syncEntry

	// retryMu guards connections whose last post hit ErrRetry; retryLen
	// is len(retryList), stored under retryMu, so an idle pass finds the
	// list empty without the lock.
	retryMu   sync.Mutex
	retryList []*lconn
	retryLen  atomic.Int32

	// header receive state for the sendrecv protocol, one per device.
	hdrMu   sync.Mutex
	hdrBufs [][]byte

	// progressHook, when set, runs after each LCI progress pass on the
	// dedicated progress thread(s) in pin mode: the locality's background
	// pass (completion drain, stale-bundle flush, retries, reaper), so the
	// progress thread is the locality's only poller.
	progressHook func()

	stopProgress func()
	stopped      atomic.Bool

	stats struct {
		sent, recvd, retries, syncPolls atomic.Uint64
	}
}

// syncEntry pairs a synchronizer with the dispatch of its completions.
type syncEntry struct {
	sync *lci.Synchronizer
	done atomic.Bool
}

// New creates the LCI parcelport on an existing device. sched provides the
// dedicated progress thread in pin mode (may be nil in mt mode).
func New(dev *lci.Device, sched *amt.Scheduler, cfg Config) (*Parcelport, error) {
	return NewMulti([]*lci.Device{dev}, sched, cfg)
}

// NewMulti creates the LCI parcelport over several replicated LCI devices —
// the §7.2 future-work configuration where each device maps to its own
// low-level network context, spreading injection and progress contention.
// Connections stripe across devices by tag; pin mode runs one dedicated
// progress thread per device.
func NewMulti(devs []*lci.Device, sched *amt.Scheduler, cfg Config) (*Parcelport, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("lcipp: need at least one device")
	}
	if cfg.Progress == parcelport.PinnedProgress && sched == nil {
		return nil, fmt.Errorf("lcipp: pinned progress requires a scheduler")
	}
	pp := &Parcelport{
		cfg:   cfg,
		devs:  devs,
		sched: sched,
		tags:  parcelport.NewTagAllocator(tagBound),
	}
	pp.maxHeader = serialization.DefaultZeroCopyThreshold
	for _, d := range devs {
		pp.putCQs = append(pp.putCQs, d.PutCQ())
		pp.maxHeader = min(pp.maxHeader, d.EagerThreshold())
	}
	// With one device, tracked completions share the put CQ (one queue to
	// poll). With several, they drain through one extra shared queue.
	if len(devs) == 1 {
		pp.opCQ = devs[0].PutCQ()
	} else {
		pp.opCQ = lci.NewCompQueue(0)
	}
	for i, cq := range pp.putCQs {
		pp.cqs = append(pp.cqs, cq)
		pp.cqDevs = append(pp.cqDevs, i)
	}
	if pp.opCQ != pp.putCQs[0] {
		pp.cqs = append(pp.cqs, pp.opCQ)
		pp.cqDevs = append(pp.cqDevs, 0)
	}
	return pp, nil
}

// Devices returns the number of replicated devices.
func (pp *Parcelport) Devices() int { return len(pp.devs) }

// devFor picks the device a connection with the given base tag stripes to.
func (pp *Parcelport) devFor(baseTag uint32) (*lci.Device, int) {
	i := int(baseTag) % len(pp.devs)
	return pp.devs[i], i
}

// Name renders the Table 1 abbreviation (without the upper layer's "_i").
func (pp *Parcelport) Name() string {
	c := parcelport.Config{
		Transport:  parcelport.TransportLCI,
		Protocol:   pp.cfg.Protocol,
		Completion: pp.cfg.Completion,
		Progress:   pp.cfg.Progress,
	}
	return c.String()
}

// MaxHeaderSize is the header cap: the zero-copy threshold, further bounded
// by LCI's eager limit so a header always fits one medium message / packet.
// Connections stripe across every replicated device, so the binding limit is
// the smallest eager threshold of any device — consulting only devs[0] would
// overrun the packet buffers of a device configured with a smaller limit.
func (pp *Parcelport) MaxHeaderSize() int { return pp.maxHeader }

// Stats returns a snapshot of the counters.
func (pp *Parcelport) Stats() Stats {
	return Stats{
		MessagesSent:  pp.stats.sent.Load(),
		MessagesRecvd: pp.stats.recvd.Load(),
		SendRetries:   pp.stats.retries.Load(),
		SyncPolls:     pp.stats.syncPolls.Load(),
	}
}

// SetProgressHook installs fn to run after every LCI progress pass of the
// dedicated progress thread(s) in pin mode — typically the locality's whole
// background pass (BackgroundWork), which makes the progress thread its only
// poller. fn runs concurrently with itself when there are several devices,
// and whenever a watchdog helper takes over a stuck pass. Must be
// called before Start; no-op in mt mode (idle workers drive background work
// there).
func (pp *Parcelport) SetProgressHook(fn func()) { pp.progressHook = fn }

// Start installs the delivery callback, posts the header receive (sendrecv
// protocol) and launches the dedicated progress thread (pin mode).
func (pp *Parcelport) Start(deliver parcelport.DeliverFunc) error {
	if deliver == nil {
		return fmt.Errorf("lcipp: nil deliver callback")
	}
	pp.deliver = deliver
	if pp.cfg.Protocol == parcelport.SendRecv {
		pp.hdrBufs = make([][]byte, len(pp.devs))
		pp.hdrMu.Lock()
		for i := range pp.devs {
			pp.hdrBufs[i] = make([]byte, pp.MaxHeaderSize())
			if err := pp.postHeaderRecvLocked(i); err != nil {
				pp.hdrMu.Unlock()
				return err
			}
		}
		pp.hdrMu.Unlock()
	}
	if pp.cfg.Progress == parcelport.PinnedProgress {
		// One dedicated progress thread per device (§7.2: replicated
		// network resources need replicated progress).
		hook := pp.progressHook
		if hook == nil {
			hook = func() {}
		}
		stops := make([]func(), len(pp.devs))
		for i, d := range pp.devs {
			stops[i] = pp.sched.StartDedicated(fmt.Sprintf("lci-progress-%d", i), false, func() {
				d.Progress()
				hook()
			})
		}
		pp.stopProgress = func() {
			for _, stop := range stops {
				stop()
			}
		}
	}
	return nil
}

// Stop shuts the parcelport down (progress thread joined, no new work).
func (pp *Parcelport) Stop() {
	if !pp.stopped.CompareAndSwap(false, true) {
		return
	}
	if pp.stopProgress != nil {
		pp.stopProgress()
	}
}

// Send transfers one HPX message. A complete message (one that rides its
// header whole, parcelport.PlanComplete) leaves connectionless: one header
// post from a pool packet, with no connection and no tag block — the
// sender's half of handleHeader's Complete branch. Anything with follow-up
// chunks, and a complete message the packet pool or the fabric turns away,
// goes through a connection: the header goes out immediately (put or medium
// send), follow-up chunks flow as completions drain, and a backpressured
// post waits on the retry list.
func (pp *Parcelport) Send(dst int, m *serialization.Message) {
	if parcelport.PlanComplete(len(m.NonZeroCopy), len(m.Transmission), len(m.ZeroCopy), pp.maxHeader) {
		dev := pp.sendDev()
		if pkt, err := dev.GetPacket(); err == nil {
			// Cannot fail: PlanComplete fitted the header under maxHeader,
			// and every packet holds at least that much.
			n, _, _, _ := parcelport.EncodeHeader(pkt.Data, 0, m, pp.maxHeader, true)
			if pp.postComplete(dev, dst, pkt, n) {
				m.Done()
				return
			}
		}
	}
	newSenderConn(pp, dst, m).drive()
}

// SendParcel is the direct parcel-send hook of the send-immediate path
// (parcel.Layer.SetParcelSender) when aggregation is off, the counterpart of
// Aggregator.SendParcel: it serializes p straight into a pool packet behind
// the header's fixed fields and posts it connectionless — no Message, no
// encode scratch, no second copy. It returns false, and the caller encodes p
// into a Message for Send, when the header would exceed MaxHeaderSize or the
// packet pool or the fabric pushes back.
func (pp *Parcelport) SendParcel(dst int, p serialization.Parcel) bool {
	if parcelport.ParcelHeaderSize(&p) > pp.maxHeader {
		return false
	}
	dev := pp.sendDev()
	pkt, err := dev.GetPacket()
	if err != nil {
		return false
	}
	n := len(parcelport.AppendParcelHeader(pkt.Data[:0], &p))
	return pp.postComplete(dev, dst, pkt, n)
}

// sendDev picks the device of the next connectionless send, round-robin
// (connections stripe by tag instead).
func (pp *Parcelport) sendDev() *lci.Device {
	if len(pp.devs) == 1 {
		return pp.devs[0]
	}
	return pp.devs[pp.sendRR.Add(1)%uint32(len(pp.devs))]
}

// postComplete sends the first n bytes of pkt, a complete header message
// assembled in place, as a dynamic put (psr) or a medium send on the header
// tag (sr). On any error, ErrRetry included, the packet goes back to the pool
// and it returns false: the caller falls back to a connection, which owns the
// retry list and the error handling.
func (pp *Parcelport) postComplete(dev *lci.Device, dst int, pkt *lci.Packet, n int) bool {
	var err error
	if pp.cfg.Protocol == parcelport.SendRecv {
		err = dev.SendmPacket(dst, headerMsgTag, pkt, n, nil, nil)
	} else {
		err = dev.PutdPacket(dst, 0, pkt, n)
	}
	if err != nil {
		dev.PutPacket(pkt)
		return false
	}
	pp.stats.sent.Add(1)
	return true
}

// BackgroundWork drains completions (and, in mt mode, drives progress): the
// pass idle workers run in mt mode, and the progress hook runs in pin mode.
func (pp *Parcelport) BackgroundWork(workerID int) bool {
	if pp.stopped.Load() {
		return false
	}
	did := false
	if pp.cfg.Progress == parcelport.WorkerProgress {
		did = pp.PollDevices()
	}
	if pp.drainCQ() {
		did = true
	}
	if pp.cfg.Completion == parcelport.Synchronizer && pp.pollSyncs() {
		did = true
	}
	if pp.drainRetries() {
		did = true
	}
	return did
}

// PollDevices runs one progress pass of every device on the calling
// goroutine: arrived packets move into the completion queues and rendezvous
// steps advance, but nothing is delivered — draining the queues stays with
// the rest of BackgroundWork, whose progress half this is in mt mode. LCI
// progress is thread-safe, so this may run beside other pollers; the
// aggregation layer calls it from a producer that just filled a bundle
// (Aggregator.SetSendPoll).
func (pp *Parcelport) PollDevices() bool {
	if pp.stopped.Load() {
		return false
	}
	did := false
	for _, d := range pp.devs {
		if d.Progress() {
			did = true
		}
	}
	return did
}

// drainChunk is one round-robin turn's per-queue batch: small enough that
// the queues interleave within a single pass (fairness), large enough to
// amortize the PopN batch pop. The chunk buffer lives on the caller's stack,
// so concurrent background workers drain without sharing scratch state.
const drainChunk = 8

// drainCQ pops and dispatches completion-queue entries from every device's
// put CQ and from the shared op CQ, round-robin interleaved under one shared
// drainBatch budget. The rotation cursor advances every pass, so under a
// sustained hot put stream the op CQ still gets a proportional share of each
// pass (the historical sequential drain served every put CQ to exhaustion of
// its own fixed batch before touching operation completions). A pass that
// finds every queue empty returns before the cursor's atomic add and the
// chunk buffer: an idle pass pays a length load per queue.
func (pp *Parcelport) drainCQ() bool {
	idle := true
	for _, q := range pp.cqs {
		if q.Len() > 0 {
			idle = false
			break
		}
	}
	if idle {
		return false
	}
	budget := drainBatch
	nq := len(pp.cqs)
	start := int(pp.drainCur.Add(1))
	var buf [drainChunk]lci.Request
	did := false
	for budget > 0 {
		idle := true
		for qi := 0; qi < nq && budget > 0; qi++ {
			slot := (start + qi) % nq
			want := drainChunk
			if budget < want {
				want = budget
			}
			n := pp.cqs[slot].PopN(buf[:want])
			if n == 0 {
				continue
			}
			idle = false
			did = true
			budget -= n
			for i := 0; i < n; i++ {
				pp.dispatch(pp.cqDevs[slot], buf[i])
			}
		}
		if idle {
			break
		}
	}
	return did
}

// dispatch routes one completion record. devIdx identifies the device whose
// queue delivered it (meaningful for header arrivals).
func (pp *Parcelport) dispatch(devIdx int, req lci.Request) {
	switch {
	case req.Type == lci.CompPut:
		// Header message arrival (putsendrecv protocol). Data is the
		// LCI-allocated buffer: safe to alias. The pooled packet (when the
		// record carries one) rides along so the delivery chain can recycle
		// it once the last parcel finished.
		pp.handleHeader(devIdx, req.Rank, req.Data, false, req.Pkt)
	case req.Ctx == nil:
		// Untracked completion (e.g. a medium send that needed none).
	default:
		switch ctx := req.Ctx.(type) {
		case headerCtx:
			pp.handleHeaderRecv(ctx.dev, req)
		case *lconn:
			ctx.onComplete(req)
		}
	}
}

// handleHeader decodes a header and hands the message on: fully piggybacked
// headers (the eager fast path, the common case for small parcels and
// aggregation bundles) deliver straight from the header buffer with zero
// copies and zero allocations beyond the pooled owner; anything expecting
// follow-up chunks starts a receiver connection on the device the header
// arrived on. mustCopy says the piggybacked chunks alias a buffer about to
// be reused (the sendrecv wildcard receive buffer). pkt, when non-nil, is
// the pooled packet the header arrived in; ownership passes to the delivery
// chain via the message owner.
func (pp *Parcelport) handleHeader(devIdx, src int, data []byte, mustCopy bool, pkt *fabric.Packet) {
	h, err := parcelport.DecodeHeader(data)
	if err != nil {
		if pkt != nil {
			pkt.Release()
		}
		return // malformed protocol message; drop
	}
	owner := parcelport.GetRecvBufs()
	if mustCopy {
		h.NZC = owner.Clone(h.NZC)
		h.Trans = owner.Clone(h.Trans)
	} else if pkt != nil {
		owner.SetInner(pkt)
	}
	var rx parcelport.Recv
	if err := rx.Start(h, owner); err != nil {
		rx.Fail()
		return // corrupt sizes; drop
	}
	if h.Complete() {
		// Everything rode the header: no connection, no follow-up tags.
		pp.stats.recvd.Add(1)
		pp.deliver(rx.Message())
		return
	}
	c := &lconn{pp: pp, dev: pp.devs[devIdx], peer: src, recv: true, baseTag: h.BaseTag, rx: rx}
	c.drive()
}

// --- sendrecv-protocol header channel ---

// postHeaderRecvLocked posts device devIdx's singleton wildcard header
// receive. Caller holds hdrMu.
func (pp *Parcelport) postHeaderRecvLocked(devIdx int) error {
	comp, reg := pp.newComp()
	err := pp.devs[devIdx].Recvm(lci.AnyRank, headerMsgTag, pp.hdrBufs[devIdx], comp, headerCtx{dev: devIdx})
	if err != nil {
		return err
	}
	if reg != nil {
		pp.addSync(reg)
	}
	return nil
}

// handleHeaderRecv processes a completed wildcard header receive and
// re-posts it.
func (pp *Parcelport) handleHeaderRecv(devIdx int, req lci.Request) {
	pp.hdrMu.Lock()
	// req.Data aliases the device's header buffer: hand the header off with
	// copies, then re-post the receive.
	pp.handleHeader(devIdx, req.Rank, req.Data, true, nil)
	if !pp.stopped.Load() {
		_ = pp.postHeaderRecvLocked(devIdx)
	}
	pp.hdrMu.Unlock()
}

// --- completion-mechanism plumbing ---

// newComp returns the completion object for one tracked operation: the
// shared CQ in cq mode, or a fresh registered synchronizer in sy mode.
// The returned *syncEntry is non-nil only in sy mode; the caller must
// addSync it after the post succeeds.
func (pp *Parcelport) newComp() (lci.Comp, *syncEntry) {
	if pp.cfg.Completion == parcelport.CompletionQueue {
		return pp.opCQ, nil
	}
	e := &syncEntry{sync: lci.NewSynchronizer(1)}
	return e.sync, e
}

func (pp *Parcelport) addSync(e *syncEntry) {
	pp.syncMu.Lock()
	pp.pendSync = append(pp.pendSync, e)
	pp.syncMu.Unlock()
}

// pollSyncs scans the pending synchronizer list round-robin, dispatching the
// completions of any that triggered — the O(pending) cost the paper
// contrasts with O(1) completion-queue pops.
func (pp *Parcelport) pollSyncs() bool {
	pp.stats.syncPolls.Add(1)
	pp.syncMu.Lock()
	entries := pp.pendSync
	pp.syncMu.Unlock()
	did := false
	finished := 0
	for _, e := range entries {
		if e.done.Load() {
			finished++
			continue
		}
		if !e.sync.Test() {
			continue
		}
		if !e.done.CompareAndSwap(false, true) {
			finished++
			continue
		}
		finished++
		did = true
		for _, req := range e.sync.Requests() {
			pp.dispatch(0, req)
		}
	}
	if finished > 0 {
		pp.compactSyncs()
	}
	return did
}

func (pp *Parcelport) compactSyncs() {
	pp.syncMu.Lock()
	// Build a fresh slice: pollSyncs iterates snapshots of the old backing
	// array outside the lock, so it must never be mutated in place.
	kept := make([]*syncEntry, 0, len(pp.pendSync))
	for _, e := range pp.pendSync {
		if !e.done.Load() {
			kept = append(kept, e)
		}
	}
	pp.pendSync = kept
	pp.syncMu.Unlock()
}

// PendingSyncs reports the synchronizer-list length (tests).
func (pp *Parcelport) PendingSyncs() int {
	pp.syncMu.Lock()
	defer pp.syncMu.Unlock()
	return len(pp.pendSync)
}

// --- retry plumbing ---

// addRetry queues a connection whose post hit ErrRetry.
func (pp *Parcelport) addRetry(c *lconn) {
	pp.stats.retries.Add(1)
	pp.retryMu.Lock()
	pp.retryList = append(pp.retryList, c)
	pp.retryLen.Store(int32(len(pp.retryList)))
	pp.retryMu.Unlock()
}

// drainRetries re-drives connections that were backpressured. An empty
// list costs one atomic load (see retryLen).
func (pp *Parcelport) drainRetries() bool {
	if pp.retryLen.Load() == 0 {
		return false
	}
	pp.retryMu.Lock()
	conns := pp.retryList
	pp.retryList = nil
	pp.retryLen.Store(0)
	pp.retryMu.Unlock()
	did := false
	for _, c := range conns {
		if c.drive() {
			did = true
		}
	}
	return did
}

// isRetry reports whether err is the nonblocking-retry signal.
func isRetry(err error) bool { return errors.Is(err, lci.ErrRetry) }
