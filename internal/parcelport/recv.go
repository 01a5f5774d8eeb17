package parcelport

import (
	"fmt"

	"hpxgo/internal/serialization"
)

// maxZeroCopyChunks bounds the zero-copy chunk count a header may announce.
const maxZeroCopyChunks = 1 << 20

// Recv reassembles one received HPX message from its header and the
// follow-ups AppendFollowUps lists, staging it in owner.Msg. A transport
// calls Start, then receives into Next's buffer and calls Done until Next
// returns nil, then delivers Message. An error is protocol corruption: the
// transport calls Fail and drops the message. Recv is a plain value embedded
// in a connection; it is not safe for concurrent use.
type Recv struct {
	h     Header
	owner *RecvBufs
	stage int
}

// Receive stages, in wire order.
const (
	stageTrans = iota
	stageNZC
	stageZC // stageZC+k receives zero-copy chunk k
)

// Start validates h's sizes and plans the follow-up receives. owner must
// keep h's piggybacked chunks alive; Recv holds it from here on.
func (r *Recv) Start(h Header, owner *RecvBufs) error {
	r.h, r.owner = h, owner
	if h.NZCSize > serialization.MaxChunkSize || h.TransSize > serialization.MaxChunkSize || h.NumZC > maxZeroCopyChunks {
		return fmt.Errorf("%w: sizes nzc=%d trans=%d zero-copy chunks=%d", ErrHeader, h.NZCSize, h.TransSize, h.NumZC)
	}
	owner.Msg = serialization.Message{NonZeroCopy: h.NZC, Transmission: h.Trans, Owner: owner}
	if !h.PiggyTrans() {
		r.stage = stageTrans
		owner.Msg.Transmission = owner.GetBuf(int(h.TransSize))
		return nil
	}
	return r.planZC()
}

// planZC runs once the transmission chunk is in: it sizes and draws the
// zero-copy buffers (and the non-zero-copy one, unless that chunk rode the
// header). A transmission chunk the parser rejects or whose chunk count
// disagrees with the header fails before anything is drawn.
func (r *Recv) planZC() error {
	m := &r.owner.Msg
	if r.h.NumZC > 0 {
		sizes, err := serialization.ParseTransmissionSizes(m.Transmission)
		if err != nil {
			return err
		}
		if len(sizes) != int(r.h.NumZC) {
			return fmt.Errorf("%w: transmission chunk lists %d chunks, header %d", ErrHeader, len(sizes), r.h.NumZC)
		}
		m.ZeroCopy = make([][]byte, len(sizes))
		for i, sz := range sizes {
			m.ZeroCopy[i] = r.owner.GetBuf(int(sz))
		}
	}
	r.stage = stageZC
	if m.NonZeroCopy == nil {
		r.stage = stageNZC
		m.NonZeroCopy = r.owner.GetBuf(int(r.h.NZCSize))
	}
	return nil
}

// Next returns the buffer the next follow-up receive must fill (possibly
// empty, never nil), or nil when the message is complete.
func (r *Recv) Next() []byte {
	m := &r.owner.Msg
	switch k := r.stage - stageZC; {
	case r.stage == stageTrans:
		return m.Transmission
	case r.stage == stageNZC:
		return m.NonZeroCopy
	case k < len(m.ZeroCopy):
		return m.ZeroCopy[k]
	}
	return nil
}

// Done absorbs the completion of the receive into Next's buffer.
func (r *Recv) Done() error {
	if r.stage == stageTrans {
		return r.planZC()
	}
	r.stage++
	return nil
}

// Message hands over the reassembled message and with it the owner, which
// the delivery chain releases once the last parcel's action finished.
func (r *Recv) Message() *serialization.Message {
	o := r.owner
	r.owner = nil
	return &o.Msg
}

// Fail abandons the message, releasing the owner exactly once.
func (r *Recv) Fail() {
	if r.owner != nil {
		r.owner.Release()
		r.owner = nil
	}
}
