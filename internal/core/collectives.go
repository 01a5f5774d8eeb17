package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/amt"
)

// Tree-structured collectives built from actions and futures, the way HPX
// composes broadcasts and reductions from plain remote calls.
//
// The flat O(N) fan-outs this file used to contain made the root's injection
// queue the bottleneck at scale — exactly what the paper's stack was built
// to avoid. They survive as *Flat reference implementations (property tests
// compare against them byte for byte; the experiments harness measures them
// against the trees).
//
// The tree collectives are expressed as reserved relay actions over the
// ordinary Call/continuation machinery, so every tree hop is a plain parcel:
// it rides the sender-side aggregation layer and the zero-alloc datapath
// like any other traffic, and the fabric's ARQ gives each hop exactly-once
// delivery. A relay task may block on its children's futures freely — tasks
// are goroutines, so a blocked relay parks instead of occupying a worker.
//
// Topology: Broadcast, Reduce and Gather use the binomial tree in which the
// parent of root-relative rank r is r with its lowest set bit cleared. The
// subtree below rank r covers the contiguous rank range [r, r+lowbit(r)),
// which is what makes a deterministic fold order cheap: every subtree
// aggregate is a left fold over consecutive ranks. AllReduce uses
// recursive doubling (with the classic fold-in/fold-out pre- and post-phase
// for non-power-of-two N); AllToAll is a pairwise exchange in which node i
// sends to i+1, i+2, ... (mod N) so no destination is hit by every sender at
// once.
//
// Fold order: every reduction combines partials in ascending root-relative
// rank order — the root's own partial first, then (root+1) mod N, (root+2)
// mod N, ... The fold therefore must be associative (subtree aggregates are
// combined, not raw partials), but it need not be commutative, and the
// result is bit-deterministic regardless of message timing.

// FoldFunc combines an accumulated result with one partial (or with a
// subtree's folded aggregate). It must be associative; commutativity is not
// required.
type FoldFunc func(acc, partial [][]byte) [][]byte

// Collective kinds (wire header field; one reserved relay action each).
const (
	collKindBcast = iota + 1
	collKindReduce
	collKindGather
	collKindAllReduce
	collKindAllToAll
)

// collRuntime is the runtime-wide collective state embedded in Runtime:
// the reserved action ids, the fold table and the collective-id allocator.
type collRuntime struct {
	bcastID     uint32
	reduceID    uint32
	gatherID    uint32
	allReduceID uint32
	allToAllID  uint32
	dataID      uint32

	nextID atomic.Uint64

	// folds holds the FoldFunc of every in-flight reduction, keyed by a
	// per-call id carried in the relay header. Only the id crosses the
	// simulated wire; sharing the function table models every rank running
	// the same binary with the same registered operations.
	foldMu   sync.Mutex
	folds    map[uint64]FoldFunc
	nextFold uint64
}

// registerCollectiveActions reserves the relay and data-plane actions. Called
// from NewRuntime after the continuation and barrier actions.
func (rt *Runtime) registerCollectiveActions() {
	rt.coll.folds = make(map[uint64]FoldFunc)
	reserve := func(name string, fn ActionFunc) uint32 {
		id := uint32(len(rt.byID))
		rt.byID = append(rt.byID, fn)
		rt.names = append(rt.names, name)
		rt.byName[name] = id
		// Relay actions fan out further parcels and fold partials — not the
		// small-and-fast shape the inline lane is for.
		rt.inline = append(rt.inline, false)
		return id
	}
	rt.coll.bcastID = reserve("__coll_bcast", rt.collBcastAction)
	rt.coll.reduceID = reserve("__coll_reduce", rt.collReduceAction)
	rt.coll.gatherID = reserve("__coll_gather", rt.collGatherAction)
	rt.coll.allReduceID = reserve("__coll_allreduce", rt.collAllReduceAction)
	rt.coll.allToAllID = reserve("__coll_alltoall", rt.collAllToAllAction)
	rt.coll.dataID = reserve("__coll_data", rt.collDataAction)
}

// registerFold parks fold in the table for the duration of one collective.
func (rt *Runtime) registerFold(fold FoldFunc) uint64 {
	rt.coll.foldMu.Lock()
	rt.coll.nextFold++
	id := rt.coll.nextFold
	rt.coll.folds[id] = fold
	rt.coll.foldMu.Unlock()
	return id
}

func (rt *Runtime) lookupFold(id uint64) FoldFunc {
	rt.coll.foldMu.Lock()
	defer rt.coll.foldMu.Unlock()
	return rt.coll.folds[id]
}

func (rt *Runtime) dropFold(id uint64) {
	rt.coll.foldMu.Lock()
	delete(rt.coll.folds, id)
	rt.coll.foldMu.Unlock()
}

// ---------------------------------------------------------------------------
// Binomial-tree topology over root-relative ranks.

// lowbit returns the lowest set bit of r (r > 0).
func lowbit(r int) int { return r & -r }

// childMasks lists the offsets of root-relative rank rel's children in an
// N-node binomial tree, ascending. rel's children are rel+1, rel+2, rel+4,
// ... while the offset stays below lowbit(rel) (unbounded for the root) and
// the child exists. The subtree below rel covers ranks
// [rel, min(n, rel+lowbit(rel))) — a contiguous range.
func childMasks(rel, n int) []int {
	bound := n
	if rel != 0 {
		bound = lowbit(rel)
	}
	var masks []int
	for m := 1; m < bound && rel+m < n; m <<= 1 {
		masks = append(masks, m)
	}
	return masks
}

// ---------------------------------------------------------------------------
// Wire formats. Collective parcels are ordinary parcels; arg 0 carries a
// small fixed header and the rest are payload blobs.

// collHdr is the control header of a relay parcel.
type collHdr struct {
	kind       byte
	id         uint64 // unique per collective invocation
	root       uint32
	action     uint32 // user action (produce action for allreduce/alltoall)
	aux        uint32 // consume action (alltoall)
	fold       uint64 // fold-table id (reduce/allreduce)
	deadlineNs int64  // unix nanos; bounds every wait in the tree
}

const collHdrLen = 1 + 8 + 4 + 4 + 4 + 8 + 8

func encodeCollHdr(h collHdr) []byte {
	b := make([]byte, collHdrLen)
	b[0] = h.kind
	binary.LittleEndian.PutUint64(b[1:], h.id)
	binary.LittleEndian.PutUint32(b[9:], h.root)
	binary.LittleEndian.PutUint32(b[13:], h.action)
	binary.LittleEndian.PutUint32(b[17:], h.aux)
	binary.LittleEndian.PutUint64(b[21:], h.fold)
	binary.LittleEndian.PutUint64(b[29:], uint64(h.deadlineNs))
	return b
}

// splitCollArgs decodes the control header and returns the user payload.
func splitCollArgs(args [][]byte) (collHdr, [][]byte, error) {
	if len(args) == 0 || len(args[0]) != collHdrLen {
		return collHdr{}, nil, fmt.Errorf("malformed collective header")
	}
	b := args[0]
	h := collHdr{
		kind:       b[0],
		id:         binary.LittleEndian.Uint64(b[1:]),
		root:       binary.LittleEndian.Uint32(b[9:]),
		action:     binary.LittleEndian.Uint32(b[13:]),
		aux:        binary.LittleEndian.Uint32(b[17:]),
		fold:       binary.LittleEndian.Uint64(b[21:]),
		deadlineNs: int64(binary.LittleEndian.Uint64(b[29:])),
	}
	return h, args[1:], nil
}

// collDataHdr is the header of an unsolicited data-plane parcel (all-to-all
// block or allreduce round partial), routed into the destination's collBox.
type collDataHdr struct {
	id         uint64
	src        uint32
	key        uint32 // source rank (alltoall) or round tag (allreduce)
	deadlineNs int64
}

const collDataHdrLen = 8 + 4 + 4 + 8

func encodeCollData(h collDataHdr) []byte {
	b := make([]byte, collDataHdrLen)
	binary.LittleEndian.PutUint64(b, h.id)
	binary.LittleEndian.PutUint32(b[8:], h.src)
	binary.LittleEndian.PutUint32(b[12:], h.key)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.deadlineNs))
	return b
}

func decodeCollData(b []byte) (collDataHdr, error) {
	if len(b) != collDataHdrLen {
		return collDataHdr{}, fmt.Errorf("malformed collective data header")
	}
	return collDataHdr{
		id:         binary.LittleEndian.Uint64(b),
		src:        binary.LittleEndian.Uint32(b[8:]),
		key:        binary.LittleEndian.Uint32(b[12:]),
		deadlineNs: int64(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// Relay replies: blob 0 is a status byte string (1 = ok; 0 followed by a
// message = error), the rest is the payload.

func collOK(payload [][]byte) [][]byte {
	return append([][]byte{{1}}, payload...)
}

func collErrf(format string, a ...any) [][]byte {
	return [][]byte{append([]byte{0}, fmt.Sprintf(format, a...)...)}
}

// parseCollReply unwraps a relay reply into its payload.
func parseCollReply(res [][]byte, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	if len(res) == 0 || len(res[0]) == 0 {
		return nil, fmt.Errorf("malformed collective reply")
	}
	if res[0][0] == 0 {
		return nil, fmt.Errorf("%s", res[0][1:])
	}
	return res[1:], nil
}

// untilNs converts an absolute unix-nano deadline to a wait budget.
func untilNs(deadlineNs int64) time.Duration {
	return time.Until(time.Unix(0, deadlineNs))
}

// ---------------------------------------------------------------------------
// Collective inboxes: per-locality buffers for unsolicited data-plane
// messages keyed by (collective id, key). A block may arrive before its
// receiver has even entered the collective (its start relay is still
// propagating down the tree), so puts get-or-create the box and waits park
// on a per-key channel.

type collBox struct {
	mu         sync.Mutex
	deadlineNs int64
	msgs       map[uint32][][]byte
	waiters    map[uint32]chan struct{}
}

// collWaiterPool recycles wait's one-shot waiter channels. Wakers signal
// with a non-blocking send into the buffered(1) channel instead of close,
// so a consumed channel goes straight back to the pool: a collective round
// parks and wakes without allocating.
var collWaiterPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// collTimerPool recycles wait's deadline timers (go>=1.23 Reset/Stop are
// race-free, so a stopped timer can be rearmed directly).
var collTimerPool sync.Pool

func getCollTimer(d time.Duration) *time.Timer {
	if v := collTimerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putCollTimer(t *time.Timer) {
	t.Stop()
	collTimerPool.Put(t)
}

// wakeWaiter signals ch's parked waiter. Each waiter parks at most once per
// channel and the channel is buffered(1), so the send never blocks; callers
// hold b.mu, which orders the send against the timeout path's map check.
func wakeWaiter(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// collbox returns (creating if needed) the inbox of collective id.
func (l *Locality) collbox(id uint64, deadlineNs int64) *collBox {
	l.maybeSweepCollBoxes(time.Now().UnixNano())
	l.collMu.Lock()
	b := l.collBoxes[id]
	if b == nil {
		b = &collBox{
			deadlineNs: deadlineNs,
			msgs:       make(map[uint32][][]byte),
			waiters:    make(map[uint32]chan struct{}),
		}
		l.collBoxes[id] = b
	}
	l.collMu.Unlock()
	return b
}

// dropCollbox removes a finished collective's inbox.
func (l *Locality) dropCollbox(id uint64) {
	l.collMu.Lock()
	delete(l.collBoxes, id)
	l.collMu.Unlock()
}

// maybeSweepCollBoxes reaps inboxes of abandoned collectives (driver timed
// out before this node's participant task consumed them). Rate-gated to one
// pass per second; boxes get a generous grace period past their deadline so
// a slow participant never loses live data.
func (l *Locality) maybeSweepCollBoxes(nowNs int64) {
	next := l.collSweepNs.Load()
	if nowNs < next || !l.collSweepNs.CompareAndSwap(next, nowNs+int64(time.Second)) {
		return
	}
	const graceNs = int64(5 * time.Second)
	l.collMu.Lock()
	for id, b := range l.collBoxes {
		b.mu.Lock()
		expired := b.deadlineNs > 0 && nowNs > b.deadlineNs+graceNs
		if expired {
			for k, ch := range b.waiters {
				delete(b.waiters, k)
				wakeWaiter(ch)
			}
			delete(l.collBoxes, id)
		}
		b.mu.Unlock()
	}
	l.collMu.Unlock()
}

// put stores one keyed message and wakes its waiter. blobs must already be
// detached from any pooled receive buffer.
func (b *collBox) put(key uint32, blobs [][]byte) {
	if blobs == nil {
		blobs = [][]byte{}
	}
	b.mu.Lock()
	b.msgs[key] = blobs
	if ch := b.waiters[key]; ch != nil {
		delete(b.waiters, key)
		wakeWaiter(ch)
	}
	b.mu.Unlock()
}

// wait blocks until the keyed message arrives or the deadline passes.
func (b *collBox) wait(key uint32, deadlineNs int64) ([][]byte, error) {
	b.mu.Lock()
	if m, ok := b.msgs[key]; ok {
		delete(b.msgs, key)
		b.mu.Unlock()
		return m, nil
	}
	ch := collWaiterPool.Get().(chan struct{})
	b.waiters[key] = ch
	b.mu.Unlock()

	t := getCollTimer(untilNs(deadlineNs))
	select {
	case <-ch:
		putCollTimer(t)
		collWaiterPool.Put(ch) // tick consumed: channel is empty again
	case <-t.C:
		putCollTimer(t)
		b.mu.Lock()
		if b.waiters[key] == ch {
			// No waker claimed the channel; removing it under b.mu means no
			// send can happen later (wakers only send while it is mapped).
			delete(b.waiters, key)
		} else {
			// A waker won the race: its send completed before it released
			// b.mu, so the pending token is there to drain.
			<-ch
		}
		m, ok := b.msgs[key]
		delete(b.msgs, key)
		b.mu.Unlock()
		collWaiterPool.Put(ch)
		if ok {
			return m, nil // arrived in the race window
		}
		return nil, fmt.Errorf("timed out waiting for collective data (key %d)", key)
	}
	b.mu.Lock()
	m, ok := b.msgs[key]
	delete(b.msgs, key)
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("collective inbox swept (key %d)", key)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Tree relay plumbing shared by the relay actions.

// childCall is one forwarded subtree, ascending by child rank so reductions
// fold deterministically.
type childCall struct {
	rel int // child's root-relative rank
	fut *amt.Future[[][]byte]
}

// forwardTree relays the control args to this node's binomial-tree children
// under relay action aid. Children are contacted largest-subtree-first (the
// deepest branch starts earliest) but returned in ascending rank order. The
// control args are detached before forwarding: a child's parcel may be
// encoded after this relay task returns on an error path.
func (l *Locality) forwardTree(root int, aid uint32, args [][]byte) []childCall {
	n := l.rt.Localities()
	rel := (l.id - root + n) % n
	masks := childMasks(rel, n)
	if len(masks) == 0 {
		return nil
	}
	fwd := detachArgs(args)
	calls := make([]childCall, len(masks))
	for i := len(masks) - 1; i >= 0; i-- {
		childRel := rel + masks[i]
		dst := (root + childRel) % n
		calls[i] = childCall{rel: childRel, fut: l.CallID(dst, aid, fwd)}
	}
	return calls
}

// awaitAcks waits for every child subtree to acknowledge completion.
func awaitAcks(calls []childCall, deadlineNs int64) error {
	for _, c := range calls {
		if _, err := parseCollReply(c.fut.GetTimeout(untilNs(deadlineNs))); err != nil {
			return fmt.Errorf("subtree at rank %d: %w", c.rel, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Relay actions.

// collBcastAction relays a broadcast down the binomial tree, runs the user
// action locally, and acknowledges once its whole subtree has run it.
func (rt *Runtime) collBcastAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	fn := rt.action(h.action)
	if fn == nil {
		return collErrf("locality %d: unknown action id %d", loc.id, h.action)
	}
	calls := loc.forwardTree(int(h.root), rt.coll.bcastID, args)
	fn(loc, user)
	if err := awaitAcks(calls, h.deadlineNs); err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	return collOK(nil)
}

// collReduceAction computes this subtree's aggregate: the local partial
// folded with each child subtree's aggregate in ascending rank order.
func (rt *Runtime) collReduceAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	fn := rt.action(h.action)
	if fn == nil {
		return collErrf("locality %d: unknown action id %d", loc.id, h.action)
	}
	fold := rt.lookupFold(h.fold)
	if fold == nil {
		return collErrf("locality %d: reduce fold %d no longer registered", loc.id, h.fold)
	}
	calls := loc.forwardTree(int(h.root), rt.coll.reduceID, args)
	acc := fn(loc, user)
	for _, c := range calls {
		part, err := parseCollReply(c.fut.GetTimeout(untilNs(h.deadlineNs)))
		if err != nil {
			return collErrf("locality %d: subtree at rank %d: %v", loc.id, c.rel, err)
		}
		acc = fold(acc, part)
	}
	return collOK(acc)
}

// collGatherAction returns the per-locality results of its whole subtree as
// a list of encoded (locality, blobs) records.
func (rt *Runtime) collGatherAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	fn := rt.action(h.action)
	if fn == nil {
		return collErrf("locality %d: unknown action id %d", loc.id, h.action)
	}
	calls := loc.forwardTree(int(h.root), rt.coll.gatherID, args)
	out := collOK([][]byte{encodeGatherRec(loc.id, fn(loc, user))})
	for _, c := range calls {
		recs, err := parseCollReply(c.fut.GetTimeout(untilNs(h.deadlineNs)))
		if err != nil {
			return collErrf("locality %d: subtree at rank %d: %v", loc.id, c.rel, err)
		}
		out = append(out, recs...)
	}
	return out
}

// encodeGatherRec packs one locality's result blobs:
// u32 locality, u32 blob count, then (u32 length, bytes) per blob.
func encodeGatherRec(locID int, blobs [][]byte) []byte {
	size := 8
	for _, b := range blobs {
		size += 4 + len(b)
	}
	rec := make([]byte, 8, size)
	binary.LittleEndian.PutUint32(rec, uint32(locID))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(blobs)))
	for _, b := range blobs {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(b)))
		rec = append(rec, l[:]...)
		rec = append(rec, b...)
	}
	return rec
}

func decodeGatherRec(rec []byte) (int, [][]byte, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("short gather record")
	}
	locID := int(binary.LittleEndian.Uint32(rec))
	n := int(binary.LittleEndian.Uint32(rec[4:]))
	blobs := make([][]byte, 0, n)
	off := 8
	for i := 0; i < n; i++ {
		if off+4 > len(rec) {
			return 0, nil, fmt.Errorf("truncated gather record")
		}
		l := int(binary.LittleEndian.Uint32(rec[off:]))
		off += 4
		if off+l > len(rec) {
			return 0, nil, fmt.Errorf("truncated gather record blob")
		}
		blobs = append(blobs, rec[off:off+l])
		off += l
	}
	return locID, blobs, nil
}

// Allreduce round tags (collBox keys). Rounds 0..29 use their round index.
const (
	arKeyPre  = 1<<30 + 0 // fold-in partial from the odd extra rank
	arKeyPost = 1<<30 + 1 // final result handed back to the extra rank
)

// collAllReduceAction runs one node's part of a recursive-doubling
// allreduce rooted (for start-relay and ack purposes) at locality 0.
//
// For N not a power of two, let p2 be the largest power of two <= N and
// rem = N - p2. Ranks below 2*rem pair up: the odd rank folds its partial
// into its even neighbour and sits out; the surviving 2*rem/2 + (N - 2*rem)
// = p2 participants run log2(p2) exchange rounds on re-indexed ranks, each
// always holding the left fold of a contiguous block of original ranks; the
// even neighbour finally hands the full result back to the odd one. Every
// node ends with the complete fold; the root's copy is returned to the
// driver.
func (rt *Runtime) collAllReduceAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	fn := rt.action(h.action)
	if fn == nil {
		return collErrf("locality %d: unknown action id %d", loc.id, h.action)
	}
	fold := rt.lookupFold(h.fold)
	if fold == nil {
		return collErrf("locality %d: allreduce fold %d no longer registered", loc.id, h.fold)
	}
	n := rt.Localities()
	box := loc.collbox(h.id, h.deadlineNs)
	defer loc.dropCollbox(h.id)
	calls := loc.forwardTree(int(h.root), rt.coll.allReduceID, args)

	acc := fn(loc, user)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	r := loc.id
	dh := collDataHdr{id: h.id, src: uint32(r), deadlineNs: h.deadlineNs}
	send := func(dst int, key uint32, blobs [][]byte) error {
		dh.key = key
		return loc.ApplyID(dst, rt.coll.dataID,
			append([][]byte{encodeCollData(dh)}, detachArgs(blobs)...))
	}

	participant, rp := true, 0
	switch {
	case r < 2*rem && r%2 == 1:
		// Fold-in: hand the partial to the left neighbour, wait for the
		// final result in the post phase.
		if err := send(r-1, arKeyPre, acc); err != nil {
			return collErrf("locality %d: fold-in: %v", loc.id, err)
		}
		participant = false
	case r < 2*rem:
		pre, err := box.wait(arKeyPre, h.deadlineNs)
		if err != nil {
			return collErrf("locality %d: fold-in from %d: %v", loc.id, r+1, err)
		}
		acc = fold(acc, pre) // blocks [r, r+1) then [r+1, r+2): rank order
		rp = r / 2
	default:
		rp = r - rem
	}

	if participant {
		round := uint32(0)
		for mask := 1; mask < p2; mask <<= 1 {
			pp := rp ^ mask
			partner := pp + rem
			if pp < rem {
				partner = 2 * pp
			}
			if err := send(partner, round, acc); err != nil {
				return collErrf("locality %d: round %d: %v", loc.id, round, err)
			}
			other, err := box.wait(round, h.deadlineNs)
			if err != nil {
				return collErrf("locality %d: round %d from %d: %v", loc.id, round, partner, err)
			}
			if pp > rp {
				acc = fold(acc, other) // partner holds the adjacent upper block
			} else {
				acc = fold(other, acc) // partner holds the adjacent lower block
			}
			round++
		}
		if r < 2*rem {
			if err := send(r+1, arKeyPost, acc); err != nil {
				return collErrf("locality %d: fold-out: %v", loc.id, err)
			}
		}
	} else {
		final, err := box.wait(arKeyPost, h.deadlineNs)
		if err != nil {
			return collErrf("locality %d: fold-out from %d: %v", loc.id, r-1, err)
		}
		acc = final
	}

	if err := awaitAcks(calls, h.deadlineNs); err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	return collOK(acc)
}

// collAllToAllAction runs one node's part of a pairwise-exchange all-to-all:
// produce the N per-destination blocks, send block d to destination d in the
// staggered order me+1, me+2, ... (so no destination takes N simultaneous
// senders), collect the N-1 inbound blocks, and hand them — indexed by
// source — to the consume action.
func (rt *Runtime) collAllToAllAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	produce := rt.action(h.action)
	consume := rt.action(h.aux)
	if produce == nil || consume == nil {
		return collErrf("locality %d: unknown produce/consume action (%d/%d)", loc.id, h.action, h.aux)
	}
	n := rt.Localities()
	box := loc.collbox(h.id, h.deadlineNs)
	defer loc.dropCollbox(h.id)
	calls := loc.forwardTree(int(h.root), rt.coll.allToAllID, args)

	blocks := produce(loc, user)
	if len(blocks) != n {
		return collErrf("locality %d: alltoall produce returned %d blocks, want %d", loc.id, len(blocks), n)
	}
	dh := collDataHdr{id: h.id, src: uint32(loc.id), key: uint32(loc.id), deadlineNs: h.deadlineNs}
	hdr := encodeCollData(dh)
	for k := 1; k < n; k++ {
		dst := (loc.id + k) % n
		blk := detachArgs(blocks[dst : dst+1])
		if err := loc.ApplyID(dst, rt.coll.dataID, [][]byte{hdr, blk[0]}); err != nil {
			return collErrf("locality %d: send to %d: %v", loc.id, dst, err)
		}
	}
	inputs := make([][]byte, n)
	inputs[loc.id] = blocks[loc.id]
	for k := 1; k < n; k++ {
		src := (loc.id - k + n) % n
		msg, err := box.wait(uint32(src), h.deadlineNs)
		if err != nil {
			return collErrf("locality %d: recv from %d: %v", loc.id, src, err)
		}
		if len(msg) > 0 {
			inputs[src] = msg[0]
		}
	}
	consume(loc, inputs)
	if err := awaitAcks(calls, h.deadlineNs); err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	return collOK(nil)
}

// collDataAction routes an unsolicited data-plane parcel into the target
// collective's inbox, creating it if the start relay has not arrived yet.
func (rt *Runtime) collDataAction(loc *Locality, args [][]byte) [][]byte {
	if len(args) == 0 {
		return nil
	}
	dh, err := decodeCollData(args[0])
	if err != nil {
		loc.decodeErrors.Add(1)
		return nil
	}
	loc.collbox(dh.id, dh.deadlineNs).put(dh.key, detachArgs(args[1:]))
	return nil
}

// ---------------------------------------------------------------------------
// Driver API.

// newCollHdr allocates a collective id and stamps the shared header fields.
func (rt *Runtime) newCollHdr(kind byte, root int, timeout time.Duration) collHdr {
	return collHdr{
		kind:       kind,
		id:         rt.coll.nextID.Add(1),
		root:       uint32(root),
		deadlineNs: time.Now().Add(timeout).UnixNano(),
	}
}

// startCollective invokes relay action aid on the root locality and waits
// for the tree to complete, returning the root relay's payload.
func (rt *Runtime) startCollective(h collHdr, aid uint32, timeout time.Duration, args [][]byte) ([][]byte, error) {
	ctl := append([][]byte{encodeCollHdr(h)}, args...)
	root := int(h.root)
	f := rt.locs[root].CallID(root, aid, ctl)
	return parseCollReply(f.GetTimeout(timeout))
}

// Broadcast invokes a registered action on every locality, relayed down a
// binomial tree rooted at locality `from` (log N injection steps per node
// instead of N at the root), and waits until the whole tree has run it.
func (rt *Runtime) Broadcast(from int, timeout time.Duration, action string, args ...[]byte) error {
	if from < 0 || from >= rt.Localities() {
		return fmt.Errorf("core: invalid broadcast source %d", from)
	}
	id, ok := rt.ActionID(action)
	if !ok {
		return fmt.Errorf("core: unknown action %q", action)
	}
	h := rt.newCollHdr(collKindBcast, from, timeout)
	h.action = id
	if _, err := rt.startCollective(h, rt.coll.bcastID, timeout, args); err != nil {
		return fmt.Errorf("core: broadcast of %q: %w", action, err)
	}
	return nil
}

// Reduce invokes a registered action on every locality and folds the
// results up a binomial tree rooted at `root`, seeded with the root-local
// result. Partials are combined in ascending root-relative rank order —
// root first, then (root+1) mod N, (root+2) mod N, ... — so the result is
// deterministic for non-commutative folds. Because subtree aggregates are
// folded (not raw partials), the fold must be associative.
func (rt *Runtime) Reduce(root int, timeout time.Duration, action string,
	fold FoldFunc, args ...[]byte) ([][]byte, error) {
	if root < 0 || root >= rt.Localities() {
		return nil, fmt.Errorf("core: invalid reduce root %d", root)
	}
	if fold == nil {
		return nil, fmt.Errorf("core: nil fold function")
	}
	id, ok := rt.ActionID(action)
	if !ok {
		return nil, fmt.Errorf("core: unknown action %q", action)
	}
	h := rt.newCollHdr(collKindReduce, root, timeout)
	h.action = id
	h.fold = rt.registerFold(fold)
	defer rt.dropFold(h.fold)
	acc, err := rt.startCollective(h, rt.coll.reduceID, timeout, args)
	if err != nil {
		return nil, fmt.Errorf("core: reduce of %q: %w", action, err)
	}
	return acc, nil
}

// Gather invokes an action on every locality, collects the per-locality
// results up a binomial tree rooted at `root`, and returns them indexed by
// locality id.
func (rt *Runtime) Gather(root int, timeout time.Duration, action string, args ...[]byte) ([][][]byte, error) {
	if root < 0 || root >= rt.Localities() {
		return nil, fmt.Errorf("core: invalid gather root %d", root)
	}
	id, ok := rt.ActionID(action)
	if !ok {
		return nil, fmt.Errorf("core: unknown action %q", action)
	}
	h := rt.newCollHdr(collKindGather, root, timeout)
	h.action = id
	recs, err := rt.startCollective(h, rt.coll.gatherID, timeout, args)
	if err != nil {
		return nil, fmt.Errorf("core: gather of %q: %w", action, err)
	}
	out := make([][][]byte, rt.Localities())
	seen := 0
	for _, rec := range recs {
		locID, blobs, err := decodeGatherRec(rec)
		if err != nil {
			return nil, fmt.Errorf("core: gather of %q: %w", action, err)
		}
		if locID < 0 || locID >= len(out) {
			return nil, fmt.Errorf("core: gather of %q: record for invalid locality %d", action, locID)
		}
		out[locID] = blobs
		seen++
	}
	if seen != len(out) {
		return nil, fmt.Errorf("core: gather of %q: %d/%d localities reported", action, seen, len(out))
	}
	return out, nil
}

// AllReduce invokes a registered action on every locality and folds the
// results with a recursive-doubling exchange (log N rounds; every locality
// ends holding the full result), returning the folded result. The fold
// combines partials in ascending locality order (0, 1, ..., N-1) and must
// be associative; commutativity is not required.
func (rt *Runtime) AllReduce(timeout time.Duration, action string, fold FoldFunc, args ...[]byte) ([][]byte, error) {
	if fold == nil {
		return nil, fmt.Errorf("core: nil fold function")
	}
	id, ok := rt.ActionID(action)
	if !ok {
		return nil, fmt.Errorf("core: unknown action %q", action)
	}
	h := rt.newCollHdr(collKindAllReduce, 0, timeout)
	h.action = id
	h.fold = rt.registerFold(fold)
	defer rt.dropFold(h.fold)
	acc, err := rt.startCollective(h, rt.coll.allReduceID, timeout, args)
	if err != nil {
		return nil, fmt.Errorf("core: allreduce of %q: %w", action, err)
	}
	return acc, nil
}

// AllToAll redistributes data between all localities with a pairwise
// exchange. On every locality the `produce` action is invoked with args and
// must return exactly N blobs — blob d is the block destined for locality d.
// Once a locality holds all N inbound blocks (its own included) the
// `consume` action is invoked with N args, arg s being the block sent by
// locality s. AllToAll returns once every locality has consumed.
func (rt *Runtime) AllToAll(timeout time.Duration, produce, consume string, args ...[]byte) error {
	pid, ok := rt.ActionID(produce)
	if !ok {
		return fmt.Errorf("core: unknown action %q", produce)
	}
	cid, ok := rt.ActionID(consume)
	if !ok {
		return fmt.Errorf("core: unknown action %q", consume)
	}
	h := rt.newCollHdr(collKindAllToAll, 0, timeout)
	h.action = pid
	h.aux = cid
	if _, err := rt.startCollective(h, rt.coll.allToAllID, timeout, args); err != nil {
		return fmt.Errorf("core: alltoall %q/%q: %w", produce, consume, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Flat O(N) reference implementations. These are the original fan-out
// collectives: every parcel originates at the root, whose injection queue
// serializes the whole operation. They remain as the semantic reference the
// tree implementations are property-tested against, and as the baseline the
// experiments harness measures the trees' ~log N scaling against.

// fanOut is the one loop behind the flat collectives: it calls action on
// every locality from root and waits for each reply under one deadline,
// returning the results in root-relative order (out[k] is locality
// (root+k) mod N's). what names the collective in errors.
func (rt *Runtime) fanOut(what string, root int, timeout time.Duration, action string, args [][]byte) ([][][]byte, error) {
	id, ok := rt.ActionID(action)
	if !ok {
		return nil, fmt.Errorf("core: unknown action %q", action)
	}
	n := rt.Localities()
	rootLoc := rt.Locality(root)
	futs := make([]*amt.Future[[][]byte], n)
	for k := range futs {
		futs[k] = rootLoc.CallID((root+k)%n, id, args)
	}
	out := make([][][]byte, n)
	deadline := time.Now().Add(timeout)
	for k, f := range futs {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("core: %s of %q timed out at locality %d", what, action, (root+k)%n)
		}
		res, err := f.GetTimeout(remain)
		if err != nil {
			return nil, fmt.Errorf("core: %s of %q at locality %d: %w", what, action, (root+k)%n, err)
		}
		out[k] = res
	}
	return out, nil
}

// BroadcastFlat invokes an action on every locality directly from `from`
// and waits for all of them — the O(N) reference for Broadcast.
func (rt *Runtime) BroadcastFlat(from int, timeout time.Duration, action string, args ...[]byte) error {
	if from < 0 || from >= rt.Localities() {
		return fmt.Errorf("core: invalid broadcast source %d", from)
	}
	_, err := rt.fanOut("broadcast", from, timeout, action, args)
	return err
}

// ReduceFlat invokes an action on every locality directly from `root` and
// folds the results there — the O(N) reference for Reduce. The fold is
// seeded with the root-local result and applied in ascending root-relative
// rank order, matching Reduce exactly.
func (rt *Runtime) ReduceFlat(root int, timeout time.Duration, action string,
	fold FoldFunc, args ...[]byte) ([][]byte, error) {
	if root < 0 || root >= rt.Localities() {
		return nil, fmt.Errorf("core: invalid reduce root %d", root)
	}
	if fold == nil {
		return nil, fmt.Errorf("core: nil fold function")
	}
	partials, err := rt.fanOut("reduce", root, timeout, action, args)
	if err != nil {
		return nil, err
	}
	acc := partials[0] // the root's own partial seeds the fold
	for _, p := range partials[1:] {
		acc = fold(acc, p)
	}
	return acc, nil
}

// GatherFlat invokes an action on every locality directly from `root` and
// returns the per-locality results — the O(N) reference for Gather.
func (rt *Runtime) GatherFlat(root int, timeout time.Duration, action string, args ...[]byte) ([][][]byte, error) {
	if root < 0 || root >= rt.Localities() {
		return nil, fmt.Errorf("core: invalid gather root %d", root)
	}
	res, err := rt.fanOut("gather", root, timeout, action, args)
	if err != nil {
		return nil, err
	}
	n := len(res)
	out := make([][][]byte, n)
	for k, r := range res {
		out[(root+k)%n] = r
	}
	return out, nil
}

// AllReduceFlat is the O(N) reference for AllReduce: a flat reduce to
// locality 0 followed by a flat broadcast of the folded result (to the
// reserved no-op action, so the traffic shape matches a real flat
// allreduce: N partials in, N results out, all through one root).
func (rt *Runtime) AllReduceFlat(timeout time.Duration, action string, fold FoldFunc, args ...[]byte) ([][]byte, error) {
	deadline := time.Now().Add(timeout)
	acc, err := rt.ReduceFlat(0, timeout, action, fold, args...)
	if err != nil {
		return nil, err
	}
	remain := time.Until(deadline)
	if remain <= 0 {
		return nil, fmt.Errorf("core: allreduce of %q timed out after reduce phase", action)
	}
	if err := rt.BroadcastFlat(0, remain, barrierActionName, acc...); err != nil {
		return nil, err
	}
	return acc, nil
}
