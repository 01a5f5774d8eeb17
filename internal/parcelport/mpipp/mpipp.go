// Package mpipp implements the HPX MPI parcelport described in §3.1 of the
// paper, on top of the MPI-like library internal/mpisim.
//
// Transferring one HPX message uses a chain of MPI messages: a header
// message on tag 0 (with the non-zero-copy and transmission chunks
// piggybacked when they fit under the zero-copy serialization threshold),
// then — on a connection-private tag from a shared allocator — the
// transmission chunk, the non-zero-copy chunk and each zero-copy chunk, one
// nonblocking operation in flight per connection at a time.
//
// The target always keeps one wildcard receive of the maximum header size
// posted on tag 0. Pending sender and receiver connections live on a
// spinlock-protected list that idle worker threads poll round-robin with
// MPI_Test — every Test taking the library's coarse progress lock, which is
// the contention structure the paper measures.
//
// The Original configuration reproduces the pre-improvement parcelport for
// the §3.1 ablation: header buffers statically sized at 512 bytes that can
// only piggyback the non-zero-copy chunk, and a lock-protected tag provider
// refilled by explicit "tag release" messages from the receiver.
package mpipp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// Reserved MPI tags.
const (
	headerTag     = 0 // header messages
	tagReleaseTag = 1 // "tag release" messages (Original mode only)
	firstFreeTag  = 2 // first tag available to connections
)

// originalHeaderSize is the fixed header buffer size of the original
// parcelport.
const originalHeaderSize = 512

// Config tunes the MPI parcelport beyond the Table 1 axes.
type Config struct {
	// Original selects the pre-improvement variant (§3.1).
	Original bool
}

// Stats are cumulative parcelport counters.
type Stats struct {
	MessagesSent     uint64
	MessagesRecvd    uint64
	HeadersPiggyNZC  uint64
	HeadersPiggyTr   uint64
	TagReleasesSent  uint64
	TagReleasesRecvd uint64
}

// Parcelport is the MPI parcelport of one locality.
type Parcelport struct {
	cfg     Config
	name    string
	comm    *mpisim.Comm
	deliver parcelport.DeliverFunc

	tags *parcelport.TagAllocator // improved mode: shared in-flight-tracking allocator
	prov *tagProvider             // original mode: lock-protected free list

	headerMu   sync.Mutex // guards the singleton header receive
	headerBuf  []byte
	headerRecv *mpisim.Request

	releaseMu   sync.Mutex // original mode: guards the tag-release receive
	releaseBuf  []byte
	releaseRecv *mpisim.Request

	pendMu  sync.Mutex // the HPX spinlock protecting the pending list
	pending []*connection

	stopped atomic.Bool

	stats struct {
		sent, recvd       atomic.Uint64
		piggyNZC, piggyTr atomic.Uint64
		relSent, relRecvd atomic.Uint64
	}
}

// New creates the MPI parcelport for the given communicator.
func New(comm *mpisim.Comm, cfg Config) *Parcelport {
	name := "mpi"
	if cfg.Original {
		name = "mpi_orig"
	}
	pp := &Parcelport{cfg: cfg, name: name, comm: comm}
	if cfg.Original {
		pp.prov = newTagProvider()
	} else {
		// Tags in [firstFreeTag, TagUB): shift the allocator's [1, bound)
		// range up past the reserved tags.
		pp.tags = parcelport.NewTagAllocator(mpisim.TagUB - firstFreeTag + 1)
	}
	return pp
}

// Name returns the Table 1 abbreviation (without the upper layer's "_i").
func (pp *Parcelport) Name() string { return pp.name }

// MaxHeaderSize returns the header-message size cap.
func (pp *Parcelport) MaxHeaderSize() int {
	if pp.cfg.Original {
		return originalHeaderSize
	}
	return serialization.DefaultZeroCopyThreshold
}

// Stats returns a snapshot of the counters.
func (pp *Parcelport) Stats() Stats {
	return Stats{
		MessagesSent:     pp.stats.sent.Load(),
		MessagesRecvd:    pp.stats.recvd.Load(),
		HeadersPiggyNZC:  pp.stats.piggyNZC.Load(),
		HeadersPiggyTr:   pp.stats.piggyTr.Load(),
		TagReleasesSent:  pp.stats.relSent.Load(),
		TagReleasesRecvd: pp.stats.relRecvd.Load(),
	}
}

// Start posts the persistent header receive (and, in Original mode, the
// tag-release receive) and installs the delivery callback.
func (pp *Parcelport) Start(deliver parcelport.DeliverFunc) error {
	if deliver == nil {
		return fmt.Errorf("mpipp: nil deliver callback")
	}
	pp.deliver = deliver
	pp.headerBuf = make([]byte, pp.MaxHeaderSize())
	r, err := pp.comm.Irecv(pp.headerBuf, mpisim.AnySource, headerTag)
	if err != nil {
		return err
	}
	pp.headerRecv = r
	if pp.cfg.Original {
		pp.releaseBuf = make([]byte, 4)
		rr, err := pp.comm.Irecv(pp.releaseBuf, mpisim.AnySource, tagReleaseTag)
		if err != nil {
			return err
		}
		pp.releaseRecv = rr
	}
	return nil
}

// Stop cancels the persistent receives and stops accepting work.
func (pp *Parcelport) Stop() {
	if !pp.stopped.CompareAndSwap(false, true) {
		return
	}
	pp.headerMu.Lock()
	if pp.headerRecv != nil {
		pp.headerRecv.Cancel()
	}
	pp.headerMu.Unlock()
	pp.releaseMu.Lock()
	if pp.releaseRecv != nil {
		pp.releaseRecv.Cancel()
	}
	pp.releaseMu.Unlock()
}

// Send starts the transfer of one HPX message: it creates a sender
// connection, sends its header message, and parks the connection on the
// pending list for the background workers to advance.
func (pp *Parcelport) Send(dst int, m *serialization.Message) {
	tag := pp.acquireTag()
	c := newSenderConnection(pp, dst, int(tag), m)
	c.advance()
	if !c.finished() {
		pp.addPending(c)
	}
}

// BackgroundWork is invoked by idle worker threads. It (a) checks the header
// receive for new HPX messages, (b) checks the tag-release receive in
// Original mode, and (c) round-robins over the pending connection list,
// Testing each connection's outstanding operation — each Test serializing on
// mpisim's coarse progress lock.
func (pp *Parcelport) BackgroundWork(workerID int) bool {
	if pp.stopped.Load() {
		return false
	}
	did := pp.checkHeader()
	if pp.cfg.Original && pp.checkTagRelease() {
		did = true
	}
	if pp.advancePending() {
		did = true
	}
	return did
}

// --- header channel ---

// checkHeader tests the singleton header receive and, when a header has
// arrived, builds a receiver connection and re-posts the receive.
func (pp *Parcelport) checkHeader() bool {
	if !pp.headerMu.TryLock() {
		return false
	}
	defer pp.headerMu.Unlock()
	r := pp.headerRecv
	if r == nil || !r.Test() {
		return false
	}
	st := r.Status()
	h, err := parcelport.DecodeHeader(pp.headerBuf[:st.Count])
	var rx parcelport.Recv
	if err == nil {
		// The piggybacked chunks alias headerBuf, which the re-posted
		// receive will overwrite: copy them into pooled buffers tracked by
		// a refcounted owner that the delivery chain releases.
		owner := parcelport.GetRecvBufs()
		h.NZC = owner.Clone(h.NZC)
		h.Trans = owner.Clone(h.Trans)
		err = rx.Start(h, owner)
	}
	pp.repostHeaderLocked()
	switch {
	case err != nil:
		// A malformed header is a protocol bug; drop it but keep receiving.
		rx.Fail()
	case h.Complete():
		// Everything rode the header: deliver straight from the copies, no
		// connection, no follow-up receives.
		pp.delivered(st.Source, h.BaseTag, rx.Message())
	default:
		c := &connection{pp: pp, recv: true, peer: st.Source, tag: int(h.BaseTag), rx: rx}
		c.advance()
		if !c.finished() {
			pp.addPending(c)
		}
	}
	return true
}

// delivered counts a reassembled message, returns its tag to the sender in
// Original mode, and hands the message to the upper layer.
func (pp *Parcelport) delivered(src int, tag uint32, m *serialization.Message) {
	pp.stats.recvd.Add(1)
	if pp.cfg.Original {
		pp.sendTagRelease(src, tag)
	}
	pp.deliver(m)
}

func (pp *Parcelport) repostHeaderLocked() {
	if pp.stopped.Load() {
		pp.headerRecv = nil
		return
	}
	r, err := pp.comm.Irecv(pp.headerBuf, mpisim.AnySource, headerTag)
	if err != nil {
		pp.headerRecv = nil
		return
	}
	pp.headerRecv = r
}

// --- pending connection list ---

func (pp *Parcelport) addPending(c *connection) {
	pp.pendMu.Lock()
	pp.pending = append(pp.pending, c)
	pp.pendMu.Unlock()
}

// advancePending walks a snapshot of the pending list, advancing every
// connection whose outstanding operation completed, then compacts the list.
func (pp *Parcelport) advancePending() bool {
	pp.pendMu.Lock()
	conns := pp.pending
	pp.pendMu.Unlock()
	if len(conns) == 0 {
		return false
	}
	did := false
	finished := 0
	for _, c := range conns {
		if c.done.Load() {
			finished++
			continue
		}
		if !c.busy.CompareAndSwap(false, true) {
			continue
		}
		if c.advance() {
			did = true
		}
		if c.finished() {
			finished++
		}
		c.busy.Store(false)
	}
	if finished > 0 {
		pp.compactPending()
	}
	return did
}

func (pp *Parcelport) compactPending() {
	pp.pendMu.Lock()
	// Build a fresh slice: advancePending iterates snapshots of the old
	// backing array outside the lock, so it must never be mutated in place.
	kept := make([]*connection, 0, len(pp.pending))
	for _, c := range pp.pending {
		if !c.done.Load() {
			kept = append(kept, c)
		}
	}
	pp.pending = kept
	pp.pendMu.Unlock()
}

// PendingConnections reports the current pending-list length (tests).
func (pp *Parcelport) PendingConnections() int {
	pp.pendMu.Lock()
	defer pp.pendMu.Unlock()
	return len(pp.pending)
}

// --- tag management ---

// acquireTag returns a connection tag. Improved mode: shared allocator that
// skips tags still held by live connections. Original mode: lock-protected
// tag provider.
func (pp *Parcelport) acquireTag() uint32 {
	if pp.cfg.Original {
		return pp.prov.acquire()
	}
	return pp.tags.Next() + firstFreeTag - 1
}

// releaseTag returns an improved-mode connection tag to the allocator.
func (pp *Parcelport) releaseTag(tag uint32) {
	pp.tags.Release(tag-firstFreeTag+1, 1)
}

// sendTagRelease (Original mode) tells the sender a connection tag is free
// again.
func (pp *Parcelport) sendTagRelease(dst int, tag uint32) {
	buf := []byte{byte(tag), byte(tag >> 8), byte(tag >> 16), byte(tag >> 24)}
	if _, err := pp.comm.Isend(buf, dst, tagReleaseTag); err == nil {
		pp.stats.relSent.Add(1)
	}
}

// checkTagRelease polls the tag-release receive (Original mode).
func (pp *Parcelport) checkTagRelease() bool {
	if !pp.releaseMu.TryLock() {
		return false
	}
	defer pp.releaseMu.Unlock()
	r := pp.releaseRecv
	if r == nil || !r.Test() {
		return false
	}
	tag := uint32(pp.releaseBuf[0]) | uint32(pp.releaseBuf[1])<<8 |
		uint32(pp.releaseBuf[2])<<16 | uint32(pp.releaseBuf[3])<<24
	pp.prov.release(tag)
	pp.stats.relRecvd.Add(1)
	if pp.stopped.Load() {
		pp.releaseRecv = nil
		return true
	}
	if rr, err := pp.comm.Irecv(pp.releaseBuf, mpisim.AnySource, tagReleaseTag); err == nil {
		pp.releaseRecv = rr
	} else {
		pp.releaseRecv = nil
	}
	return true
}

// tagProvider is the original parcelport's tag source: a lock-protected
// vector of released tags, refilled by tag-release messages, falling back to
// an atomic counter when empty (§3.1).
type tagProvider struct {
	mu   sync.Mutex
	free []uint32
	next atomic.Uint32
}

func newTagProvider() *tagProvider {
	p := &tagProvider{}
	p.next.Store(firstFreeTag - 1)
	return p
}

func (p *tagProvider) acquire() uint32 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return t
	}
	p.mu.Unlock()
	t := p.next.Add(1)
	if t >= mpisim.TagUB {
		// Wrap back into the usable range, same safety assumption as the
		// improved version.
		p.next.CompareAndSwap(t, firstFreeTag-1)
		return p.acquire()
	}
	return t
}

func (p *tagProvider) release(tag uint32) {
	p.mu.Lock()
	p.free = append(p.free, tag)
	p.mu.Unlock()
}
