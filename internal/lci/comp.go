package lci

import (
	"sync"
	"sync/atomic"

	"hpxgo/internal/fabric"
	"hpxgo/internal/ring"
)

// CompType classifies a completion record.
type CompType uint8

const (
	// CompSend signals local completion of Sendm/Sendl: the source buffer may
	// be reused.
	CompSend CompType = iota
	// CompRecv signals that a posted Recvm/Recvl buffer has been filled.
	CompRecv
	// CompPut signals, at the target, the arrival of a dynamic put. Data
	// holds the LCI-allocated buffer.
	CompPut
)

func (t CompType) String() string {
	switch t {
	case CompSend:
		return "send"
	case CompRecv:
		return "recv"
	case CompPut:
		return "put"
	default:
		return "unknown"
	}
}

// Request is a completion record, delivered through one of the completion
// mechanisms. It is the LCI analogue of an MPI status, with the user context
// threaded through from the posting call.
type Request struct {
	Type CompType
	Rank int    // peer rank
	Tag  uint32 // message tag (put: the 32-bit immediate/meta word)
	Data []byte // recv/put payload (recv: the posted buffer trimmed to size)
	Ctx  any    // user context given at the posting call

	// Pkt, when non-nil on a CompPut record, is the pooled fabric packet
	// whose payload Data aliases. Ownership transfers to the consumer: it
	// must call Pkt.Release once it is done with Data so the packet recycles
	// to its device pool. A consumer that never releases only forfeits the
	// recycle — the packet falls to the GC (see the fabric pool protocol).
	Pkt *fabric.Packet
}

// Comp is a completion mechanism: something a finished operation signals.
// LCI lets nearly any communication primitive pair with any Comp; the three
// implementations here are CompQueue, Synchronizer and Handler.
type Comp interface {
	signal(Request)
}

// CompQueue is a multi-producer multi-consumer completion queue. Push is
// lock-free via the bounded ring; a rarely-used overflow list keeps Push
// non-dropping when a burst outruns the consumer.
type CompQueue struct {
	r *ring.MPMC[Request]

	ovMu     sync.Mutex
	overflow []Request // pending records are overflow[ovHead:]
	ovHead   int
	ovLen    atomic.Int64
}

// NewCompQueue creates a completion queue with the given capacity hint.
func NewCompQueue(capacity int) *CompQueue {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &CompQueue{r: ring.New[Request](capacity)}
}

func (q *CompQueue) signal(req Request) { q.Push(req) }

// Push enqueues a completion record. It never blocks and never drops.
func (q *CompQueue) Push(req Request) {
	if q.r.TryPush(req) {
		return
	}
	q.ovMu.Lock()
	q.overflow = append(q.overflow, req)
	q.ovMu.Unlock()
	q.ovLen.Add(1)
}

// Pop dequeues one completion record, if any.
func (q *CompQueue) Pop() (Request, bool) {
	if req, ok := q.r.TryPop(); ok {
		return req, true
	}
	if q.ovLen.Load() > 0 {
		var one [1]Request
		if q.popOverflow(one[:]) == 1 {
			return one[0], true
		}
	}
	return Request{}, false
}

// PopN dequeues up to len(buf) completion records into buf and returns how
// many were written. It amortizes the MPMC pop across a batch: the ring is
// drained record by record (each TryPop is one CAS), then a single overflow
// lock acquisition covers however many overflow records are still needed —
// instead of one lock probe per record as repeated Pop calls would pay once
// the ring runs dry. Safe for concurrent consumers; allocation-free.
func (q *CompQueue) PopN(buf []Request) int {
	n := 0
	for n < len(buf) {
		req, ok := q.r.TryPop()
		if !ok {
			break
		}
		buf[n] = req
		n++
	}
	if n < len(buf) && q.ovLen.Load() > 0 {
		n += q.popOverflow(buf[n:])
	}
	return n
}

// popOverflow moves up to len(buf) records from the head of the overflow
// list into buf. The head advances by index, so a pop costs what it moves,
// not the depth of the list behind it: a consumer that has fallen far behind
// a flood catches up in linear time.
func (q *CompQueue) popOverflow(buf []Request) int {
	q.ovMu.Lock()
	k := copy(buf, q.overflow[q.ovHead:])
	// Zero the vacated slots so Data/Ctx/Pkt references don't pin buffers
	// past their dequeue.
	clear(q.overflow[q.ovHead : q.ovHead+k])
	q.ovHead += k
	if 2*q.ovHead >= len(q.overflow) {
		// Compact once the consumed prefix is at least half the list, so
		// producers appending behind a consumer that never quite empties it
		// reuse the space. Moving at most ovHead records after ovHead pops
		// keeps a pop amortized O(1).
		rest := copy(q.overflow, q.overflow[q.ovHead:])
		clear(q.overflow[rest:])
		q.overflow, q.ovHead = q.overflow[:rest], 0
	}
	q.ovMu.Unlock()
	if k > 0 {
		q.ovLen.Add(int64(-k))
	}
	return k
}

// Len returns the approximate queue length.
func (q *CompQueue) Len() int { return q.r.Len() + int(q.ovLen.Load()) }

// Synchronizer is the LCI analogue of an MPI request, generalized to allow
// multiple producers: it fires once `expected` signals have arrived. Unlike a
// completion queue it must be polled individually, which is exactly the cost
// the paper's `sy` variants pay.
type Synchronizer struct {
	expected int64
	count    atomic.Int64

	mu   sync.Mutex
	reqs []Request
}

// NewSynchronizer creates a synchronizer that triggers after expected signals.
func NewSynchronizer(expected int) *Synchronizer {
	if expected <= 0 {
		expected = 1
	}
	return &Synchronizer{expected: int64(expected)}
}

func (s *Synchronizer) signal(req Request) {
	s.mu.Lock()
	s.reqs = append(s.reqs, req)
	s.mu.Unlock()
	s.count.Add(1)
}

// Test reports whether the synchronizer has triggered, without resetting it.
func (s *Synchronizer) Test() bool { return s.count.Load() >= s.expected }

// Requests returns the accumulated completion records once triggered, or nil.
func (s *Synchronizer) Requests() []Request {
	if !s.Test() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Request, len(s.reqs))
	copy(out, s.reqs)
	return out
}

// Reset re-arms the synchronizer for reuse.
func (s *Synchronizer) Reset() {
	s.mu.Lock()
	s.reqs = s.reqs[:0]
	s.mu.Unlock()
	s.count.Store(0)
}

// Handler adapts a function to the Comp interface: the function runs inline
// on the progress thread when the operation completes. This mirrors LCI's
// function-handler completion mechanism.
type Handler func(Request)

func (h Handler) signal(req Request) { h(req) }
