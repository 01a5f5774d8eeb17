package mpipp

import (
	"sync/atomic"

	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// connKind distinguishes sender from receiver connections.
type connKind uint8

const (
	senderConn connKind = iota
	receiverConn
)

// connection is the per-HPX-message state machine of §3.1. A connection has
// at most one nonblocking operation outstanding; idle workers advance it
// from the pending list once the operation Tests complete.
type connection struct {
	pp   *Parcelport
	kind connKind
	peer int
	tag  int

	busy atomic.Bool // one worker advances a connection at a time
	done atomic.Bool

	cur *mpisim.Request // the outstanding operation, nil if none

	// Sender state.
	msg       *serialization.Message
	headerBuf []byte
	segs      [][]byte // chunks to send after the header, in order
	segIdx    int

	// Receiver state.
	h       parcelport.Header
	owner   *parcelport.RecvBufs // buffer owner handed to the delivered message
	trans   []byte
	nzc     []byte
	zcBufs  [][]byte
	stage   int // index into the receive plan
	planned bool
}

// Receiver stages.
const (
	stageTrans = iota
	stageNZC
	stageZC // stageZC+k receives zero-copy chunk k
)

func (c *connection) finished() bool { return c.done.Load() }

// finishSender marks a sender connection done, returns its tag to the
// allocator so it cannot be matched to a second live connection (improved
// mode; Original recycles tags via receiver-driven tag-release messages),
// and recycles the pooled header buffer. Safe here: the header Isend either
// completed (every operation Tests complete before the next is posted and
// before the connection finishes) or was never posted.
func (c *connection) finishSender() {
	if !c.done.CompareAndSwap(false, true) {
		return
	}
	if !c.pp.cfg.Original {
		c.pp.releaseTag(uint32(c.tag))
	}
	if c.headerBuf != nil {
		wire.PutBuf(c.headerBuf)
		c.headerBuf = nil
	}
}

// --- sender ---

// newSenderConnection builds the chain of MPI messages for one HPX message.
func newSenderConnection(pp *Parcelport, dst, tag int, m *serialization.Message) *connection {
	c := &connection{pp: pp, kind: senderConn, peer: dst, tag: tag, msg: m}
	max := pp.MaxHeaderSize()
	// The improved parcelport allocates the header buffer dynamically at
	// its exact size (§3.1); the original used a fixed 512B stack buffer.
	need, _, _ := parcelport.PlanHeader(len(m.NonZeroCopy), len(m.Transmission), max, !pp.cfg.Original)
	if pp.cfg.Original && need < originalHeaderSize {
		need = originalHeaderSize
	}
	buf := wire.GetBuf(need)
	n, piggyNZC, piggyTrans, err := parcelport.EncodeHeader(buf, uint32(tag), m, max, !pp.cfg.Original)
	if err != nil {
		// Unreachable with a sane config; treat as an empty header so the
		// connection finishes without wedging the pending list.
		c.finishSender()
		return c
	}
	if pp.cfg.Original {
		// The original parcelport always transmits the full fixed-size
		// header buffer; zero the tail so recycled pool bytes never reach
		// the wire.
		clear(buf[n:originalHeaderSize])
		c.headerBuf = buf[:originalHeaderSize]
	} else {
		c.headerBuf = buf[:n]
	}
	if piggyNZC {
		pp.stats.piggyNZC.Add(1)
	}
	if piggyTrans {
		pp.stats.piggyTr.Add(1)
	}
	// Follow-up order per the paper: transmission chunk, non-zero-copy
	// chunk, then each zero-copy chunk — all on the connection tag.
	if len(m.Transmission) > 0 && !piggyTrans {
		c.segs = append(c.segs, m.Transmission)
	}
	if !piggyNZC {
		c.segs = append(c.segs, m.NonZeroCopy)
	}
	c.segs = append(c.segs, m.ZeroCopy...)
	return c
}

// start posts the header send and advances as far as already possible.
func (c *connection) start() {
	if c.done.Load() {
		return
	}
	if c.kind == senderConn {
		r, err := c.pp.comm.Isend(c.headerBuf, c.peer, headerTag)
		if err != nil {
			c.finishSender()
			return
		}
		c.cur = r
	}
	c.advance()
}

// advance drives the state machine while its outstanding operations keep
// completing. Returns true if any progress was made. The caller holds the
// connection's busy flag.
func (c *connection) advance() bool {
	did := false
	for {
		if c.done.Load() {
			return did
		}
		if c.cur != nil {
			if !c.cur.Test() {
				return did
			}
			did = true
		}
		if c.kind == senderConn {
			if !c.advanceSender() {
				return did
			}
		} else {
			if !c.advanceReceiver() {
				return did
			}
		}
	}
}

// advanceSender posts the next chunk send, or finishes. Returns false when
// the connection is done or stuck (stuck never happens: Isend errors finish
// the connection).
func (c *connection) advanceSender() bool {
	if c.segIdx >= len(c.segs) {
		c.cur = nil
		c.pp.stats.sent.Add(1)
		c.msg.Done()
		c.finishSender()
		return false
	}
	seg := c.segs[c.segIdx]
	c.segIdx++
	r, err := c.pp.comm.Isend(seg, c.peer, c.tag)
	if err != nil {
		c.finishSender()
		return false
	}
	c.cur = r
	return true
}

// --- receiver ---

// newReceiverConnection is created when a header message arrives. h's
// piggybacked chunks must already be copied out of the shared header buffer
// into owner-tracked storage; owner also owns every buffer staged later and
// transfers to the delivered message (or is released if the connection
// fails).
func newReceiverConnection(pp *Parcelport, src int, h parcelport.Header, owner *parcelport.RecvBufs) *connection {
	c := &connection{pp: pp, kind: receiverConn, peer: src, tag: int(h.BaseTag), h: h, owner: owner}
	c.trans = h.Trans
	c.nzc = h.NZC
	if h.TransSize == 0 || c.trans != nil {
		c.planZC()
		if c.done.Load() {
			return c
		}
		if c.nzc != nil {
			c.stage = stageZC
		} else {
			c.stage = stageNZC
		}
	} else {
		c.stage = stageTrans
	}
	return c
}

// failRecv abandons a receiver connection, releasing the buffer owner.
func (c *connection) failRecv() {
	c.done.Store(true)
	if c.owner != nil {
		c.owner.Release()
		c.owner = nil
	}
}

// planZC sizes the zero-copy receive buffers from the transmission chunk
// and draws them, like every other receive buffer, through the owner.
func (c *connection) planZC() {
	c.planned = true
	if c.h.NumZC == 0 {
		return
	}
	sizes, err := serialization.ParseTransmissionSizes(c.trans)
	if err != nil || len(sizes) != int(c.h.NumZC) {
		// Protocol corruption (truncated, oversize or duplicated entries);
		// finish the connection to avoid wedging.
		c.failRecv()
		return
	}
	c.zcBufs = make([][]byte, len(sizes))
	for i, sz := range sizes {
		c.zcBufs[i] = c.owner.GetBuf(int(sz))
	}
}

// advanceReceiver posts the next chunk receive or delivers the completed
// message. The previous receive (if any) has already Tested complete.
func (c *connection) advanceReceiver() bool {
	// Absorb the completion of the receive we posted last round.
	if c.cur != nil {
		c.cur = nil
		switch {
		case c.stage == stageTrans:
			c.planZC()
			if c.done.Load() {
				return false
			}
			if c.nzc != nil {
				c.stage = stageZC
			} else {
				c.stage = stageNZC
			}
		case c.stage == stageNZC:
			c.stage = stageZC
		default:
			c.stage++ // next zero-copy chunk
		}
	}
	// Post the receive for the current stage, or deliver.
	switch {
	case c.stage == stageTrans:
		c.trans = c.owner.GetBuf(int(c.h.TransSize))
		return c.post(c.trans)
	case c.stage == stageNZC:
		c.nzc = c.owner.GetBuf(int(c.h.NZCSize))
		return c.post(c.nzc)
	case c.stage-stageZC < len(c.zcBufs):
		return c.post(c.zcBufs[c.stage-stageZC])
	default:
		// Hand the buffer owner to the message; the delivery chain releases
		// it, and with it every chunk buffer, once the last parcel's action
		// finished.
		o := c.owner
		c.owner = nil
		o.Msg = serialization.Message{NonZeroCopy: c.nzc, Transmission: c.trans, ZeroCopy: c.zcBufs, Owner: o}
		c.pp.stats.recvd.Add(1)
		if c.pp.cfg.Original {
			c.pp.sendTagRelease(c.peer, uint32(c.tag))
		}
		c.done.Store(true)
		c.pp.deliver(&o.Msg)
		return false
	}
}

func (c *connection) post(buf []byte) bool {
	r, err := c.pp.comm.Irecv(buf, c.peer, c.tag)
	if err != nil {
		c.failRecv()
		return false
	}
	c.cur = r
	return true
}
