package parcelport

import (
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// Aggregation defaults. FlushBytes roughly matches one fabric packet of
// small messages; FlushDelay caps the age of a frame whose producer never
// pauses for a whole quiet gap.
const (
	DefaultAggFlushBytes = 4096
	DefaultAggFlushDelay = 50 * time.Microsecond
)

// aggQuietGap is how long a destination must see no append before FlushStale
// releases its bundle: one stand-alone send on the direct path costs that
// (1.18 µs at flood_64b_direct's 845 K/s), so a later partner saved nothing.
// A constant, not a knob: flat from 0.2 µs to 2 µs (DESIGN.md §7).
const aggQuietGap = int64(time.Microsecond)

// AggConfig tunes the sender-side aggregation layer.
type AggConfig struct {
	// FlushBytes flushes a destination buffer once it reaches this size.
	// Default 4096.
	FlushBytes int
	// FlushDelay is the upper bound on a buffered message's age; it fires
	// only under a trickle that never pauses for aggQuietGap, which is what
	// normally releases a bundle. Default 50µs.
	FlushDelay time.Duration
	// MaxSub caps the size of a sub-message eligible for bundling; larger
	// messages (and any message with zero-copy chunks) pass through.
	// Default FlushBytes/2.
	MaxSub int
	// MaxQueued enforces the per-destination pending cap on buffered
	// sub-messages: reaching it forces a flush (backpressure) and bumps
	// the CapFlushes counter. Default MaxPendingConnections.
	MaxQueued int
}

func (c *AggConfig) fillDefaults() {
	if c.FlushBytes <= 0 {
		c.FlushBytes = DefaultAggFlushBytes
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = DefaultAggFlushDelay
	}
	if c.MaxSub <= 0 {
		c.MaxSub = c.FlushBytes / 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = MaxPendingConnections
	}
}

// AggStats are cumulative aggregation-layer counters.
type AggStats struct {
	BundledMessages uint64 // sub-messages packed into bundles
	Bundles         uint64 // bundle transfers handed to the inner parcelport
	DirectSends     uint64 // messages passed through unbundled
	SizeFlushes     uint64 // buffers flushed by FlushBytes
	QuietFlushes    uint64 // buffers flushed because the producer went quiet
	AgeFlushes      uint64 // buffers flushed by the FlushDelay age cap
	CapFlushes      uint64 // buffers flushed by the MaxQueued backpressure cap
	OrderFlushes    uint64 // buffers flushed ahead of a passthrough message
	StopFlushes     uint64 // buffers drained by Stop at shutdown
	Unbundled       uint64 // sub-messages unpacked from received bundles
}

// aggDest is the per-destination coalescing buffer.
type aggDest struct {
	mu    sync.Mutex
	buf   []byte // nil when empty; otherwise a growing wire bundle
	count int    // frames in buf
	// firstNs (oldest buffered frame), lastNs (latest append) and pending
	// (count != 0) are written under mu and read by FlushStale without it: a
	// poller finds "idle" or "not quiet yet" off the sender's lock.
	firstNs, lastNs atomic.Int64
	pending         atomic.Bool
}

// Aggregator is the sender-side parcel aggregation layer: a Parcelport
// decorator that packs small same-destination messages into one wire
// bundle per fabric transfer; the receiver's one decode unpacks it (see
// Start). Large messages, and anything carrying zero-copy chunks, pass
// through untouched (after flushing the destination buffer, preserving
// rough per-destination FIFO order).
//
// Bundles are ordinary messages to the layers below, so they ride the
// fabric's reliability layer like any other transfer: one ack, one
// retransmission unit, exactly-once delivery per bundle and therefore per
// sub-message.
type Aggregator struct {
	inner Parcelport
	cfg   AggConfig
	now   func() int64 // monotonic ns; tests substitute a fake
	dests []*aggDest

	// sendPoll, when set, runs on the producer's goroutine after each bundle
	// the producer filled (SetSendPoll).
	sendPoll func() bool

	stats struct {
		bundled, bundles, direct, unbundle             atomic.Uint64
		sizeFl, quietFl, ageFl, capFl, orderFl, stopFl atomic.Uint64
	}
}

// NewAggregator wraps inner with a coalescing layer for numDest
// destinations.
func NewAggregator(inner Parcelport, numDest int, cfg AggConfig) *Aggregator {
	cfg.fillDefaults()
	start := time.Now()
	a := &Aggregator{inner: inner, cfg: cfg, now: func() int64 { return int64(time.Since(start)) }}
	a.dests = make([]*aggDest, numDest)
	for i := range a.dests {
		a.dests[i] = &aggDest{}
	}
	return a
}

// SetSendPoll installs fn to run on the producer's goroutine each time one of
// its appends fills a bundle (a size or cap flush), right after the bundle
// went to the inner parcelport. A producer that streams without ever blocking
// keeps its CPU from the goroutines that poll the network, so on a host with
// fewer cores than polling goroutines a reply to the producer (a credit, an
// acknowledgement) sits in the network until the producer blocks or is
// preempted; one poll per bundle bounds that wait by the time to fill a
// bundle. fn runs wherever the caller sent from, possibly under the caller's
// locks, so it must not deliver messages: the LCI parcelport installs its
// device poll, which only moves arrivals into completion queues. Install
// before traffic flows.
func (a *Aggregator) SetSendPoll(fn func() bool) { a.sendPoll = fn }

// Inner exposes the wrapped parcelport (stats reporting).
func (a *Aggregator) Inner() Parcelport { return a.inner }

// Name renders the inner parcelport's name with the aggregation suffix.
func (a *Aggregator) Name() string { return a.inner.Name() + "_agg" }

// Stats returns a snapshot of the aggregation counters.
func (a *Aggregator) Stats() AggStats {
	return AggStats{
		BundledMessages: a.stats.bundled.Load(),
		Bundles:         a.stats.bundles.Load(),
		DirectSends:     a.stats.direct.Load(),
		SizeFlushes:     a.stats.sizeFl.Load(),
		QuietFlushes:    a.stats.quietFl.Load(),
		AgeFlushes:      a.stats.ageFl.Load(),
		CapFlushes:      a.stats.capFl.Load(),
		OrderFlushes:    a.stats.orderFl.Load(),
		StopFlushes:     a.stats.stopFl.Load(),
		Unbundled:       a.stats.unbundle.Load(),
	}
}

// QueuedSubMessages reports buffered frames for dst (tests/metrics).
func (a *Aggregator) QueuedSubMessages(dst int) int {
	if dst < 0 || dst >= len(a.dests) {
		return 0
	}
	d := a.dests[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Start starts the inner parcelport with the caller's delivery callback
// untouched: a received bundle is an ordinary message to every layer below
// the decode (serialization.DecodeInto unpacks it), so the receive side of
// aggregation is one counter, credited through NoteUnbundled.
func (a *Aggregator) Start(deliver DeliverFunc) error { return a.inner.Start(deliver) }

// NoteUnbundled credits frames sub-messages unpacked from one received
// bundle; the receiver calls it once per decoded bundle.
func (a *Aggregator) NoteUnbundled(frames int) { a.stats.unbundle.Add(uint64(frames)) }

// Stop flushes every destination buffer and stops the inner parcelport.
// Shutdown drains credit StopFlushes: no poller judged these buffers quiet
// or expired, and folding them into either counter would pollute it.
func (a *Aggregator) Stop() {
	for dst := range a.dests {
		a.flushDest(dst, &a.stats.stopFl)
	}
	a.inner.Stop()
}

// bundleable reports whether m may ride a bundle: non-zero-copy only and
// small. Zero-copy chunks alias user memory the receiver must get as
// separate transfers, and big payloads gain nothing from batching.
func (a *Aggregator) bundleable(m *serialization.Message) bool {
	return len(m.ZeroCopy) == 0 && len(m.Transmission) == 0 &&
		len(m.NonZeroCopy) > 0 && len(m.NonZeroCopy) <= a.cfg.MaxSub
}

// Send coalesces m into dst's buffer, flushing on size or the backpressure
// cap, or passes an unbundleable message through behind its predecessors.
func (a *Aggregator) Send(dst int, m *serialization.Message) {
	if dst < 0 || dst >= len(a.dests) {
		a.inner.Send(dst, m)
		return
	}
	if !a.bundleable(m) {
		// Flush buffered predecessors first so per-destination order is
		// roughly preserved, then hand the message through untouched.
		a.flushDest(dst, &a.stats.orderFl)
		a.stats.direct.Add(1)
		a.inner.Send(dst, m)
		return
	}
	d := a.dests[dst]
	now := a.now()
	d.mu.Lock()
	a.ensureBufLocked(d)
	d.buf = wire.AppendFrame(d.buf, m.NonZeroCopy)
	out, counter := a.noteAppendLocked(d, now)
	d.mu.Unlock()
	a.stats.bundled.Add(1)
	// The payload was copied into the bundle: the sub-message is locally
	// complete. Done may re-enter Send (the parcel layer drains its queue
	// from OnSent), hence outside d.mu.
	m.Done()
	if out != nil {
		a.sendFilled(dst, out, counter)
	}
}

// SendParcel encodes p straight into dst's bundle buffer, skipping the
// per-message encode scratch entirely: no scratch allocation, no copy, no
// Message wrapper — the steady-state bundled fast path. It returns false
// when the parcel must take the ordinary encode-then-Send path instead
// (out-of-range destination or too big to bundle). The caller guarantees
// every argument is below its zero-copy threshold.
func (a *Aggregator) SendParcel(dst int, p serialization.Parcel) bool {
	if dst < 0 || dst >= len(a.dests) {
		return false
	}
	need := serialization.EncodedSizeInline(&p)
	if need > a.cfg.MaxSub {
		return false
	}
	d := a.dests[dst]
	now := a.now()
	d.mu.Lock()
	a.ensureBufLocked(d)
	d.buf = serialization.AppendEncodeInline(wire.AppendFrameHeader(d.buf, need), &p)
	out, counter := a.noteAppendLocked(d, now)
	d.mu.Unlock()
	a.stats.bundled.Add(1)
	if out != nil {
		a.sendFilled(dst, out, counter)
	}
	return true
}

// ensureBufLocked lazily allocates dst's bundle buffer. Caller holds d.mu.
func (a *Aggregator) ensureBufLocked(d *aggDest) {
	if d.buf == nil {
		// Size the buffer so appends never outgrow the pooled slice: the
		// last frame lands when len < FlushBytes and adds at most MaxSub
		// payload plus its header.
		need := a.cfg.FlushBytes + a.cfg.MaxSub + wire.FrameHeaderSize + wire.BundleHeaderSize
		d.buf = wire.BeginBundle(wire.GetBuf(need)[:0])
	}
}

// noteAppendLocked records an appended frame and applies the size and
// backpressure-cap flush policy, returning the detached bundle (if any)
// with the counter to credit. Caller holds d.mu and sends the bundle after
// unlocking.
func (a *Aggregator) noteAppendLocked(d *aggDest, now int64) (*serialization.Message, *atomic.Uint64) {
	d.count++
	d.lastNs.Store(now)
	if d.count == 1 {
		d.firstNs.Store(now)
		d.pending.Store(true)
	}
	switch {
	case len(d.buf) >= a.cfg.FlushBytes:
		return d.takeLocked(), &a.stats.sizeFl
	case d.count >= a.cfg.MaxQueued:
		return d.takeLocked(), &a.stats.capFl
	}
	return nil, nil
}

// takeLocked detaches the destination's buffer as a sendable message.
// Caller holds d.mu.
func (d *aggDest) takeLocked() *serialization.Message {
	buf := d.buf
	d.buf = nil
	d.count = 0
	d.pending.Store(false)
	return &serialization.Message{
		NonZeroCopy: buf,
		OnSent:      func() { wire.PutBuf(buf) },
	}
}

// flushDest sends dst's buffered bundle, if any, crediting counter.
func (a *Aggregator) flushDest(dst int, counter *atomic.Uint64) {
	d := a.dests[dst]
	if !d.pending.Load() {
		return
	}
	d.mu.Lock()
	var out *serialization.Message
	if d.count > 0 {
		out = d.takeLocked()
	}
	d.mu.Unlock()
	if out != nil {
		counter.Add(1)
		a.sendBundle(dst, out)
	}
}

func (a *Aggregator) sendBundle(dst int, out *serialization.Message) {
	a.stats.bundles.Add(1)
	a.inner.Send(dst, out)
}

// sendFilled sends a bundle its producer's append filled, crediting counter,
// then runs the send poll on the producer's goroutine.
func (a *Aggregator) sendFilled(dst int, out *serialization.Message, counter *atomic.Uint64) {
	counter.Add(1)
	a.sendBundle(dst, out)
	if a.sendPoll != nil {
		a.sendPoll()
	}
}

// staleCounter names the rule that makes d's buffer due at now, as the
// counter to credit; nil when neither does.
func (a *Aggregator) staleCounter(d *aggDest, now int64) *atomic.Uint64 {
	switch {
	case now-d.lastNs.Load() >= aggQuietGap:
		return &a.stats.quietFl
	case now-d.firstNs.Load() >= int64(a.cfg.FlushDelay):
		return &a.stats.ageFl
	}
	return nil
}

// FlushStale flushes every destination whose producer has gone quiet (no
// append for aggQuietGap: nobody is coming to share the transfer) or whose
// oldest frame has aged to FlushDelay. Driven from BackgroundWork, which in
// lci pin mode the dedicated progress thread runs: a pass takes no lock on
// a destination still being filled and reads no clock when nothing is
// pending. Reports whether anything flushed.
func (a *Aggregator) FlushStale() bool {
	now, did := int64(-1), false
	for dst, d := range a.dests {
		if !d.pending.Load() {
			continue
		}
		if now < 0 {
			now = a.now()
		}
		if a.staleCounter(d, now) == nil {
			continue
		}
		d.mu.Lock()
		var out *serialization.Message
		counter := a.staleCounter(d, now) // the sender may have appended since
		if d.count > 0 && counter != nil {
			out = d.takeLocked()
		}
		d.mu.Unlock()
		if out != nil {
			counter.Add(1)
			a.sendBundle(dst, out)
			did = true
		}
	}
	return did
}

// BackgroundWork flushes stale buffers and runs the inner parcelport's
// background work.
func (a *Aggregator) BackgroundWork(workerID int) bool {
	did := a.FlushStale()
	if a.inner.BackgroundWork(workerID) {
		did = true
	}
	return did
}
