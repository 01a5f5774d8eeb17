package lci

import (
	"sync"

	"hpxgo/internal/fabric"
	"hpxgo/internal/ring"
)

// matchKind separates the medium and long matching namespaces so a Recvm can
// never capture a rendezvous RTS with the same tag.
type matchKind uint8

const (
	kindMedium matchKind = iota
	kindLong
)

// postedRecv is a receive posted by the user, waiting for its message.
type postedRecv struct {
	src  int // AnyRank for wildcard
	tag  uint32
	buf  []byte
	comp Comp
	ctx  any
	long bool
}

// matchTable performs tag matching. It is sharded by (kind, tag) with one
// short mutex per shard — the fine-grained locking the paper contrasts with
// MPI's coarse progress lock. Entries carry the source rank so wildcard
// (AnyRank) receives fall out of the same scan.
type matchTable struct {
	shards [matchShards]matchShard
}

// matchShards is the shard count of a matchTable (a power of two, so a
// hash picks its shard with a mask).
const matchShards = 64

type matchShard struct {
	mu     sync.Mutex
	posted map[uint64][]*postedRecv
	unexp  map[uint64][]*fabric.Packet
}

func newMatchTable() *matchTable {
	t := &matchTable{}
	for i := range t.shards {
		t.shards[i].posted = make(map[uint64][]*postedRecv)
		t.shards[i].unexp = make(map[uint64][]*fabric.Packet)
	}
	return t
}

func matchKey(kind matchKind, tag uint32) uint64 {
	return uint64(kind)<<32 | uint64(tag)
}

func (t *matchTable) shard(key uint64) *matchShard {
	// Fibonacci hash of the key to spread consecutive tags across shards.
	h := uint32(key*0x9E3779B97F4A7C15>>33) ^ uint32(key)
	return &t.shards[h&(matchShards-1)]
}

// postRecv registers a posted receive. If a matching unexpected message is
// already queued it is removed and returned instead (the caller delivers it),
// and the receive is not registered.
func (t *matchTable) postRecv(kind matchKind, src int, tag uint32, pr *postedRecv) *fabric.Packet {
	key := matchKey(kind, tag)
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if list := s.unexp[key]; len(list) > 0 {
		for i, pkt := range list {
			if src == AnyRank || pkt.Src == src {
				s.unexp[key] = deleteAt(list, i)
				return pkt
			}
		}
	}
	s.posted[key] = append(s.posted[key], pr)
	return nil
}

// postRecvFront re-registers a receive at the head of its list (used when a
// rendezvous accept must be retried).
func (t *matchTable) postRecvFront(kind matchKind, src int, tag uint32, pr *postedRecv) {
	key := matchKey(kind, tag)
	s := t.shard(key)
	s.mu.Lock()
	s.posted[key] = append([]*postedRecv{pr}, s.posted[key]...)
	s.mu.Unlock()
}

// arrive matches an incoming packet against posted receives. If no receive
// matches, the packet is queued as unexpected and nil is returned.
func (t *matchTable) arrive(kind matchKind, pkt *fabric.Packet, tag uint32) *postedRecv {
	key := matchKey(kind, tag)
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if list := s.posted[key]; len(list) > 0 {
		for i, pr := range list {
			if pr.src == AnyRank || pr.src == pkt.Src {
				s.posted[key] = deletePRAt(list, i)
				return pr
			}
		}
	}
	s.unexp[key] = append(s.unexp[key], pkt)
	return nil
}

// pushUnexpected queues a packet as unexpected without attempting a match.
func (t *matchTable) pushUnexpected(kind matchKind, src int, tag uint32, pkt *fabric.Packet) {
	key := matchKey(kind, tag)
	s := t.shard(key)
	s.mu.Lock()
	s.unexp[key] = append(s.unexp[key], pkt)
	s.mu.Unlock()
}

// unexpectedCount reports queued unexpected messages (for tests/stats).
func (t *matchTable) unexpectedCount() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, l := range s.unexp {
			n += len(l)
		}
		s.mu.Unlock()
	}
	return n
}

// deleteAt / deletePRAt keep the emptied slice (rather than dropping it to
// nil) so a steady-state post→match cycle on a stable tag set reuses the
// map entry's capacity instead of re-allocating on every append. The
// retained memory is bounded by the high-water mark per live tag.

func deleteAt(l []*fabric.Packet, i int) []*fabric.Packet {
	l[i] = l[len(l)-1]
	l[len(l)-1] = nil
	return l[:len(l)-1]
}

func deletePRAt(l []*postedRecv, i int) []*postedRecv {
	// Preserve posting order for the remaining receives (wildcards care).
	copy(l[i:], l[i+1:])
	l[len(l)-1] = nil
	return l[:len(l)-1]
}

// handleTable is a fixed-size slot table with a lock-free freelist, used for
// in-flight rendezvous state on both sides.
type handleTable[T any] struct {
	slots []T
	free  *ring.MPMC[uint32]
}

func newHandleTable[T any](n int) *handleTable[T] {
	t := &handleTable[T]{slots: make([]T, n), free: ring.New[uint32](n)}
	for i := 0; i < n; i++ {
		t.free.TryPush(uint32(i))
	}
	return t
}

func (t *handleTable[T]) alloc() (*T, uint32, bool) {
	idx, ok := t.free.TryPop()
	if !ok {
		return nil, 0, false
	}
	return &t.slots[idx], idx, true
}

func (t *handleTable[T]) get(idx uint32) *T { return &t.slots[idx] }

func (t *handleTable[T]) release(idx uint32) {
	var zero T
	t.slots[idx] = zero
	t.free.TryPush(idx)
}

// longSend is the sender-side state of an in-flight rendezvous.
type longSend struct {
	data []byte
	comp Comp
	ctx  any
	dst  int
	tag  uint32

	// Chunked-streaming cursor, populated by handleCTS when the payload is
	// split across rails (see streamChunks). Each field is touched by one
	// goroutine at a time: the CTS is dispatched by a single poller, and a
	// backpressured stream resumes only through the deferred-work list,
	// which hands the handle to exactly one retrier.
	recvIdx   uint32 // receiver's handle index (T0 of every chunk)
	chunkSize int    // bytes per chunk
	stripe    int    // rails this transfer is striped across
	rails     int    // total fabric rails (modulus for the rail mapping)
	railBase  int    // first rail of the stripe (decorrelates transfers)
	chunks    int    // total chunk count
	sent      int    // chunks already accepted by the fabric
}

// chunkAt maps a send-sequence position to (chunk index, rail). Chunks are
// enumerated rail-major — stripe slot s carries chunks s, s+stripe,
// s+2*stripe, ... — so a contiguous run of positions shares a rail and
// InjectBatch amortizes one producer-lock acquisition across it. The
// receiver reassembles by offset, so the on-the-wire order is irrelevant.
func (h *longSend) chunkAt(pos int) (ci, rail int) {
	sw := h.stripe
	for s := 0; s < sw; s++ {
		onRail := (h.chunks - s + sw - 1) / sw // chunks carried by slot s
		if pos < onRail {
			return s + pos*sw, (h.railBase + s) % h.rails
		}
		pos -= onRail
	}
	panic("lci: chunk position out of range")
}

// longRecv is the receiver-side state of an accepted rendezvous.
type longRecv struct {
	buf  []byte
	comp Comp
	ctx  any
	src  int
	tag  uint32

	// Chunked reassembly: expect is the total payload size announced by the
	// RTS; remaining counts undelivered bytes and is decremented atomically
	// by each arriving chunk (Progress is multi-threaded, so chunks of one
	// transfer can land concurrently). The decrement that reaches zero owns
	// completion and sends the opLongFin notification back to sendIdx on the
	// sender — chunks travel zero-copy out of the sender's buffer, so the
	// sender may not complete (and the caller may not reuse the buffer)
	// until the receiver has copied every chunk out. Plain int64 + atomic
	// ops (not atomic.Int64) so the slot table's zero-value recycling stays
	// copyable under vet.
	expect    int
	remaining int64
	sendIdx   uint32
}
