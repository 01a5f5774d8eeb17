package mpipp

import (
	"sync/atomic"

	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// connection is the per-HPX-message state machine of §3.1. A connection has
// at most one nonblocking operation outstanding; idle workers advance it
// from the pending list once the operation Tests complete. Every message of
// a connection travels on its one tag.
type connection struct {
	pp   *Parcelport
	recv bool // receiver side?
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
	rx parcelport.Recv
}

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

// newSenderConnection builds the chain of MPI messages for one HPX message
// and posts its header.
func newSenderConnection(pp *Parcelport, dst, tag int, m *serialization.Message) *connection {
	c := &connection{pp: pp, peer: dst, tag: tag, msg: m}
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
	c.segs = parcelport.AppendFollowUps(nil, m, piggyNZC, piggyTrans)
	if c.cur, err = pp.comm.Isend(c.headerBuf, dst, headerTag); err != nil {
		c.finishSender()
	}
	return c
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
		if c.recv {
			if !c.advanceReceiver() {
				return did
			}
		} else if !c.advanceSender() {
			return did
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

// failRecv abandons a receiver connection, releasing the buffer owner.
func (c *connection) failRecv() {
	c.done.Store(true)
	c.rx.Fail()
}

// advanceReceiver absorbs the receive posted last round (which has Tested
// complete), then posts the next one or delivers the completed message.
func (c *connection) advanceReceiver() bool {
	if c.cur != nil {
		c.cur = nil
		if err := c.rx.Done(); err != nil {
			c.failRecv()
			return false
		}
	}
	buf := c.rx.Next()
	if buf == nil {
		c.done.Store(true)
		c.pp.delivered(c.peer, uint32(c.tag), c.rx.Message())
		return false
	}
	r, err := c.pp.comm.Irecv(buf, c.peer, c.tag)
	if err != nil {
		c.failRecv()
		return false
	}
	c.cur = r
	return true
}
