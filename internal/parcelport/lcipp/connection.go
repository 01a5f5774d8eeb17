package lcipp

import (
	"sync"

	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// lconn is the connection of one HPX message that has follow-up messages (a
// message that rides its header whole needs none; see Parcelport.Send and
// handleHeader). Unlike the
// MPI parcelport's connections it is event-driven: instead of sitting on a
// pending list to be Test-polled, it advances when its completions pop out
// of the completion queue (or its synchronizers trigger, in sy mode).
//
// A connection posts one tracked operation at a time; medium sends complete
// locally inside the post (LCI's buffered sendm) and therefore advance
// inline. Follow-up message k travels on tag k of the connection's block.
type lconn struct {
	pp   *Parcelport
	dev  *lci.Device // the replicated device this connection stripes to
	peer int
	recv bool // receiver side?

	mu      sync.Mutex
	done    bool
	waiting bool // a tracked operation is outstanding

	baseTag uint32
	idx     int // follow-up messages posted so far

	// Sender state.
	msg          *serialization.Message
	segs         [][]byte
	headerPosted bool

	// Receiver state.
	rx parcelport.Recv
}

// --- sender ---

// newSenderConn plans the chain of LCI messages for one HPX message and
// reserves a block of distinct tags for the follow-ups.
func newSenderConn(pp *Parcelport, dst int, m *serialization.Message) *lconn {
	c := &lconn{pp: pp, peer: dst, msg: m}
	_, piggyNZC, piggyTrans := parcelport.PlanHeader(len(m.NonZeroCopy), len(m.Transmission), pp.MaxHeaderSize(), true)
	c.segs = parcelport.AppendFollowUps(nil, m, piggyNZC, piggyTrans)
	c.baseTag = pp.tags.Block(max(len(c.segs), 1))
	c.dev, _ = pp.devFor(c.baseTag)
	return c
}

// finishSenderLocked marks a sender connection done and returns its reserved
// tag block to the allocator, so the tags cannot be matched to a second live
// connection. Every caller runs on a connection not yet done, so this
// happens once. Caller holds c.mu.
func (c *lconn) finishSenderLocked() {
	c.done = true
	c.pp.tags.Release(c.baseTag, max(len(c.segs), 1))
}

// drive advances the connection as far as possible: it (re)posts the
// sender's header if needed, and is also how a backpressure retry re-enters
// the state machine. Returns false if the connection is done or still
// backpressured on its header.
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
	if !c.headerPosted && !c.postHeaderLocked() {
		return false
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
	if !c.recv {
		c.advanceSenderLocked()
		return
	}
	if err := c.rx.Done(); err != nil {
		c.failRecvLocked()
		return
	}
	c.advanceReceiverLocked()
}

// postHeaderLocked sends the header message: a dynamic put assembled in an
// LCI packet (psr) or a medium send on the header tag (sr). Returns false
// and queues a retry on backpressure.
func (c *lconn) postHeaderLocked() bool {
	pp := c.pp
	maxSize := pp.MaxHeaderSize()
	var err error
	switch pp.cfg.Protocol {
	case parcelport.PutSendRecv:
		pkt, perr := c.dev.GetPacket()
		if perr != nil {
			pp.addRetry(c)
			return false
		}
		var n int
		if n, _, _, err = parcelport.EncodeHeader(pkt.Data, c.baseTag, c.msg, maxSize, true); err == nil {
			err = c.dev.PutdPacket(c.peer, 0, pkt, n)
		}
		if err != nil {
			c.dev.PutPacket(pkt)
		}
	case parcelport.SendRecv:
		need, _, _ := parcelport.PlanHeader(len(c.msg.NonZeroCopy), len(c.msg.Transmission), maxSize, true)
		buf := wire.GetBuf(need)
		var n int
		if n, _, _, err = parcelport.EncodeHeader(buf, c.baseTag, c.msg, maxSize, true); err == nil {
			// Medium sends are buffered: locally complete on return (the
			// fabric copies the payload), so the pooled header buffer can go
			// straight back — including on error, where it was never handed
			// off. A retry re-encodes into a fresh buffer.
			err = c.dev.Sendm(c.peer, headerMsgTag, buf[:n], nil, nil)
		}
		wire.PutBuf(buf)
	}
	if isRetry(err) {
		pp.addRetry(c)
		return false
	}
	if err != nil {
		c.finishSenderLocked()
		return false
	}
	c.headerPosted = true
	return true
}

// advanceSenderLocked posts follow-up chunks until it must wait (long send
// outstanding), hits backpressure, or finishes.
func (c *lconn) advanceSenderLocked() {
	pp := c.pp
	for c.idx < len(c.segs) && !c.waiting {
		seg := c.segs[c.idx]
		tag := pp.tags.Nth(c.baseTag, c.idx)
		var err error
		if len(seg) <= c.dev.EagerThreshold() {
			err = c.dev.Sendm(c.peer, tag, seg, nil, nil)
		} else {
			comp, reg := pp.newComp()
			if err = c.dev.Sendl(c.peer, tag, seg, comp, c); err == nil {
				if reg != nil {
					pp.addSync(reg)
				}
				c.waiting = true
			}
		}
		if isRetry(err) {
			pp.addRetry(c)
			return
		}
		if err != nil {
			c.finishSenderLocked()
			return
		}
		c.idx++
	}
	if c.idx >= len(c.segs) && !c.waiting {
		c.finishSenderLocked()
		pp.stats.sent.Add(1)
		c.msg.Done()
	}
}

// --- receiver ---

// failRecvLocked abandons a receiver connection, releasing the buffer owner.
func (c *lconn) failRecvLocked() {
	c.done = true
	c.rx.Fail()
}

// advanceReceiverLocked posts the receive for the next follow-up message on
// the next block tag — medium or long by the expected size, mirroring the
// sender's choice — or delivers the completed message.
func (c *lconn) advanceReceiverLocked() {
	if c.waiting || c.done {
		return
	}
	pp := c.pp
	buf := c.rx.Next()
	if buf == nil {
		c.done = true
		pp.stats.recvd.Add(1)
		pp.deliver(c.rx.Message())
		return
	}
	tag := pp.tags.Nth(c.baseTag, c.idx)
	comp, reg := pp.newComp()
	var err error
	if len(buf) <= c.dev.EagerThreshold() {
		err = c.dev.Recvm(c.peer, tag, buf, comp, c)
	} else if err = c.dev.Recvl(c.peer, tag, buf, comp, c); isRetry(err) {
		// Recvl's ErrRetry means "posted, under handle pressure": the
		// receive is re-queued internally and will still complete.
		err = nil
	}
	if err != nil {
		c.failRecvLocked()
		return
	}
	if reg != nil {
		pp.addSync(reg)
	}
	c.idx++
	c.waiting = true
}
