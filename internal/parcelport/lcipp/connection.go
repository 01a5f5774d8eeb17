package lcipp

import (
	"sync"

	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// lconn is the per-HPX-message connection of the LCI parcelport. Unlike the
// MPI parcelport's connections it is event-driven: instead of sitting on a
// pending list to be Test-polled, it advances when its completions pop out
// of the completion queue (or its synchronizers trigger, in sy mode).
//
// A connection posts one tracked operation at a time; medium sends complete
// locally inside the post (LCI's buffered sendm) and therefore advance
// inline.
type lconn struct {
	pp   *Parcelport
	dev  *lci.Device // the replicated device this connection stripes to
	peer int
	recv bool // receiver side?

	mu       sync.Mutex
	done     bool
	waiting  bool // a tracked operation is outstanding
	released bool // sender's tag block returned to the allocator

	baseTag uint32
	tagIdx  int // follow-up messages consumed so far (receiver)

	// Sender state.
	msg          *serialization.Message
	segs         [][]byte
	segIdx       int
	headerPosted bool

	// Receiver state.
	h      parcelport.Header
	owner  *parcelport.RecvBufs // buffer owner handed to the delivered message
	trans  []byte
	nzc    []byte
	zcBufs [][]byte
	stage  int
}

// Receiver stages.
const (
	stageTrans = iota
	stageNZC
	stageZC // stageZC+k receives zero-copy chunk k
)

// --- sender ---

// newSenderConn plans the chain of LCI messages for one HPX message and
// reserves a block of distinct tags for the follow-ups.
func newSenderConn(pp *Parcelport, dst int, m *serialization.Message) *lconn {
	c := &lconn{pp: pp, peer: dst, msg: m}
	max := pp.MaxHeaderSize()
	_, piggyNZC, piggyTrans := parcelport.PlanHeader(len(m.NonZeroCopy), len(m.Transmission), max, true)
	if len(m.Transmission) > 0 && !piggyTrans {
		c.segs = append(c.segs, m.Transmission)
	}
	if !piggyNZC {
		c.segs = append(c.segs, m.NonZeroCopy)
	}
	c.segs = append(c.segs, m.ZeroCopy...)
	n := len(c.segs)
	if n == 0 {
		n = 1
	}
	c.baseTag = pp.tags.Block(n)
	c.dev, _ = pp.devFor(c.baseTag)
	return c
}

// finishSenderLocked marks a sender connection done and returns its reserved
// tag block to the allocator, exactly once, so the tags cannot be matched to
// a second live connection. Caller holds c.mu.
func (c *lconn) finishSenderLocked() {
	c.done = true
	if c.released {
		return
	}
	c.released = true
	n := len(c.segs)
	if n == 0 {
		n = 1
	}
	c.pp.tags.Release(c.baseTag, n)
}

// start sends the header and advances as far as possible.
func (c *lconn) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	if c.recv {
		c.advanceReceiverLocked()
		return
	}
	if !c.postHeaderLocked() {
		return // backpressured; retry list re-drives us
	}
	c.advanceSenderLocked()
}

// drive re-enters the state machine after a backpressure retry.
func (c *lconn) drive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return false
	}
	if c.recv {
		c.advanceReceiverLocked()
		return true
	}
	if !c.headerPosted {
		if !c.postHeaderLocked() {
			return false
		}
	}
	c.advanceSenderLocked()
	return true
}

// onComplete handles a completion record routed to this connection.
func (c *lconn) onComplete(req lci.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.waiting = false
	if c.recv {
		c.absorbRecvLocked()
		c.advanceReceiverLocked()
	} else {
		c.advanceSenderLocked()
	}
}

// postHeaderLocked sends the header message: a dynamic put assembled in an
// LCI packet (psr) or a medium send on the header tag (sr). Returns false
// and queues a retry on backpressure.
func (c *lconn) postHeaderLocked() bool {
	pp := c.pp
	max := pp.MaxHeaderSize()
	switch pp.cfg.Protocol {
	case parcelport.PutSendRecv:
		pkt, err := c.dev.GetPacket()
		if err != nil {
			pp.addRetry(c)
			return false
		}
		n, _, _, encErr := parcelport.EncodeHeader(pkt.Data, c.baseTag, c.msg, max, true)
		if encErr != nil {
			c.dev.PutPacket(pkt)
			c.finishSenderLocked()
			return false
		}
		if err := c.dev.PutdPacket(c.peer, 0, pkt, n); err != nil {
			c.dev.PutPacket(pkt)
			if isRetry(err) {
				pp.addRetry(c)
				return false
			}
			c.finishSenderLocked()
			return false
		}
	case parcelport.SendRecv:
		need, _, _ := parcelport.PlanHeader(len(c.msg.NonZeroCopy), len(c.msg.Transmission), max, true)
		buf := wire.GetBuf(need)
		n, _, _, encErr := parcelport.EncodeHeader(buf, c.baseTag, c.msg, max, true)
		if encErr != nil {
			wire.PutBuf(buf)
			c.finishSenderLocked()
			return false
		}
		// Medium sends are buffered: locally complete on return (the fabric
		// copies the payload), so the pooled header buffer can go straight
		// back — including on error, where it was never handed off. A retry
		// re-encodes into a fresh buffer.
		err := c.dev.Sendm(c.peer, headerMsgTag, buf[:n], nil, nil)
		wire.PutBuf(buf)
		if err != nil {
			if isRetry(err) {
				pp.addRetry(c)
				return false
			}
			c.finishSenderLocked()
			return false
		}
	}
	c.headerPosted = true
	return true
}

// advanceSenderLocked posts follow-up chunks until it must wait (long send
// outstanding), hits backpressure, or finishes.
func (c *lconn) advanceSenderLocked() {
	pp := c.pp
	eager := c.dev.EagerThreshold()
	for c.segIdx < len(c.segs) && !c.waiting {
		seg := c.segs[c.segIdx]
		tag := pp.tags.Nth(c.baseTag, c.segIdx)
		if len(seg) <= eager {
			err := c.dev.Sendm(c.peer, tag, seg, nil, nil)
			if err != nil {
				if isRetry(err) {
					pp.addRetry(c)
					return
				}
				c.finishSenderLocked()
				return
			}
			c.segIdx++
			continue
		}
		comp, reg := pp.newComp()
		err := c.dev.Sendl(c.peer, tag, seg, comp, c)
		if err != nil {
			if isRetry(err) {
				pp.addRetry(c)
				return
			}
			c.finishSenderLocked()
			return
		}
		if reg != nil {
			pp.addSync(reg)
		}
		c.waiting = true
		c.segIdx++
	}
	if c.segIdx >= len(c.segs) && !c.waiting {
		c.finishSenderLocked()
		pp.stats.sent.Add(1)
		c.msg.Done()
	}
}

// --- receiver ---

// newReceiverConn is created on header arrival; h's piggybacked chunks must
// not alias a reusable buffer (the caller copies when needed). devIdx is the
// device the header arrived on; follow-ups use the same device. owner owns
// the buffers h's chunks alias plus every buffer staged later; it transfers
// to the delivered message, or is released if the connection fails.
func newReceiverConn(pp *Parcelport, devIdx, src int, h parcelport.Header, owner *parcelport.RecvBufs) *lconn {
	c := &lconn{pp: pp, dev: pp.devs[devIdx], peer: src, recv: true, h: h, baseTag: h.BaseTag, owner: owner}
	c.trans = h.Trans
	c.nzc = h.NZC
	if h.TransSize == 0 || c.trans != nil {
		c.planZC()
		if c.done {
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

// failRecvLocked abandons a receiver connection, releasing the buffer owner.
func (c *lconn) failRecvLocked() {
	c.done = true
	if c.owner != nil {
		c.owner.Release()
		c.owner = nil
	}
}

// planZC sizes the zero-copy receive buffers from the transmission chunk
// and draws them, like every other receive buffer, through the owner. A
// transmission chunk the parser rejects (truncated, oversize or duplicated
// entries) is protocol corruption and fails the connection.
func (c *lconn) planZC() {
	if c.h.NumZC == 0 {
		return
	}
	sizes, err := serialization.ParseTransmissionSizes(c.trans)
	if err != nil || len(sizes) != int(c.h.NumZC) {
		c.failRecvLocked()
		return
	}
	c.zcBufs = make([][]byte, len(sizes))
	for i, sz := range sizes {
		c.zcBufs[i] = c.owner.GetBuf(int(sz))
	}
}

// absorbRecvLocked accounts for the completion of the receive posted last.
func (c *lconn) absorbRecvLocked() {
	switch {
	case c.stage == stageTrans:
		c.planZC()
		if c.done {
			return
		}
		if c.nzc != nil {
			c.stage = stageZC
		} else {
			c.stage = stageNZC
		}
	case c.stage == stageNZC:
		c.stage = stageZC
	default:
		c.stage++
	}
}

// advanceReceiverLocked posts the receive for the current stage or delivers
// the completed message.
func (c *lconn) advanceReceiverLocked() {
	if c.waiting || c.done {
		return
	}
	pp := c.pp
	switch {
	case c.stage == stageTrans:
		c.trans = c.owner.GetBuf(int(c.h.TransSize))
		c.postRecvLocked(c.trans)
	case c.stage == stageNZC:
		c.nzc = c.owner.GetBuf(int(c.h.NZCSize))
		c.postRecvLocked(c.nzc)
	case c.stage-stageZC < len(c.zcBufs):
		c.postRecvLocked(c.zcBufs[c.stage-stageZC])
	default:
		// Hand the buffer owner to the message; the delivery chain releases
		// it, and with it every chunk buffer, once the last parcel's action
		// finished.
		o := c.owner
		c.owner = nil
		o.Msg = serialization.Message{NonZeroCopy: c.nzc, Transmission: c.trans, ZeroCopy: c.zcBufs, Owner: o}
		c.done = true
		pp.stats.recvd.Add(1)
		pp.deliver(&o.Msg)
	}
}

// postRecvLocked posts one follow-up receive on the next block tag, choosing
// medium or long by the expected size (mirroring the sender's choice).
func (c *lconn) postRecvLocked(buf []byte) {
	pp := c.pp
	tag := pp.tags.Nth(c.baseTag, c.tagIdx)
	comp, reg := pp.newComp()
	var err error
	if len(buf) <= c.dev.EagerThreshold() {
		err = c.dev.Recvm(c.peer, tag, buf, comp, c)
	} else {
		// Recvl's ErrRetry means "posted, under handle pressure": the
		// receive is re-queued internally and will still complete.
		if err = c.dev.Recvl(c.peer, tag, buf, comp, c); isRetry(err) {
			err = nil
		}
	}
	if err != nil {
		c.failRecvLocked()
		return
	}
	if reg != nil {
		pp.addSync(reg)
	}
	c.tagIdx++
	c.waiting = true
}
