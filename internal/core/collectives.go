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
// Every collective is one reserved relay action over the ordinary
// Call/continuation machinery, so every tree hop is a plain parcel: it rides
// the sender-side aggregation layer and the zero-alloc datapath like any
// other traffic, and the fabric's ARQ gives each hop exactly-once delivery.
// A relay task may block on its children's futures freely — tasks are
// goroutines, so a blocked relay parks instead of occupying a worker.
//
// Topology: the binomial tree in which the parent of root-relative rank r is
// r with its lowest set bit cleared. The subtree below rank r covers the
// contiguous rank range [r, r+lowbit(r)), which is what makes a
// deterministic fold order cheap: every subtree aggregate is a left fold over
// consecutive ranks. The relay's kind picks its local step and how it
// combines its children's replies: broadcast runs the user action and its
// children only acknowledge; reduce folds; gather appends tagged records;
// all-to-all runs a pairwise exchange (node i sends to i+1, i+2, ... mod N,
// so no destination is hit by every sender at once) through the __coll_data
// inbox and its children only acknowledge.
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

// Collective kinds (relay header field): the relay's local step and combine.
const (
	collKindBcast = iota + 1
	collKindReduce
	collKindGather
	collKindAllToAll
)

// collRuntime is the runtime-wide collective state embedded in Runtime:
// the reserved action ids, the fold table and the collective-id allocator.
type collRuntime struct {
	relayID uint32
	dataID  uint32

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
// from NewRuntime after the continuation action.
func (rt *Runtime) registerCollectiveActions() {
	rt.coll.folds = make(map[uint64]FoldFunc)
	reserve := func(name string, fn ActionFunc) uint32 {
		id := uint32(len(rt.byID))
		rt.byID = append(rt.byID, fn)
		rt.names = append(rt.names, name)
		rt.byName[name] = id
		// The relay fans out further parcels and folds partials — not the
		// small-and-fast shape the inline lane is for.
		rt.inline = append(rt.inline, false)
		return id
	}
	rt.coll.relayID = reserve("__coll_relay", rt.collRelayAction)
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
	action     uint32 // user action (produce action for all-to-all)
	aux        uint32 // consume action (all-to-all)
	fold       uint64 // fold-table id (reduce)
	deadlineNs int64  // monoNs deadline; bounds every wait in the tree
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

// An all-to-all block travels as __coll_data with a header of u64
// collective id, u32 source rank and i64 monoNs deadline, and is routed
// into the destination's collBox under its source rank.
const collDataHdrLen = 8 + 4 + 8

func encodeCollData(id uint64, src uint32, deadlineNs int64) []byte {
	b := make([]byte, collDataHdrLen)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint32(b[8:], src)
	binary.LittleEndian.PutUint64(b[12:], uint64(deadlineNs))
	return b
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

// untilNs converts a monoNs deadline to a wait budget. Deadlines are on the
// monotonic clock, so a wall-clock step neither expires a collective early
// nor holds it past its timeout.
func untilNs(deadlineNs int64) time.Duration {
	return time.Duration(deadlineNs - monoNs())
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
	// Every blob carries a 4-byte length, so a count the record cannot hold
	// is corrupt; checking it first keeps it from sizing the allocation.
	if n > (len(rec)-8)/4 {
		return 0, nil, fmt.Errorf("gather record claims %d blobs in %d bytes", n, len(rec))
	}
	blobs := make([][]byte, 0, n)
	off := 8
	for i := 0; i < n; i++ {
		if off+4 > len(rec) {
			return 0, nil, fmt.Errorf("truncated gather record")
		}
		l := int(binary.LittleEndian.Uint32(rec[off:]))
		off += 4
		if l > len(rec)-off {
			return 0, nil, fmt.Errorf("truncated gather record blob")
		}
		blobs = append(blobs, rec[off:off+l])
		off += l
	}
	return locID, blobs, nil
}

// ---------------------------------------------------------------------------
// Collective inboxes: per-locality buffers for all-to-all blocks, keyed by
// (collective id, source rank). A block may arrive before its receiver has
// even entered the collective (its relay is still propagating down the
// tree), so puts get-or-create the box and waits park on a per-key channel.

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
	l.maybeSweepCollBoxes(monoNs())
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
// pass per second on the monoNs clock; boxes get a generous grace period
// past their deadline so a slow participant never loses live data.
func (l *Locality) maybeSweepCollBoxes(nowNs int64) {
	next := l.collSweepNs.Load()
	if nowNs < next || !l.collSweepNs.CompareAndSwap(next, nowNs+int64(time.Second)) {
		return
	}
	const graceNs = int64(5 * time.Second)
	l.collMu.Lock()
	for id, b := range l.collBoxes {
		b.mu.Lock()
		if nowNs > b.deadlineNs+graceNs {
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
// The relay.

// childCall is one forwarded subtree, ascending by child rank so reductions
// fold deterministically.
type childCall struct {
	rel int // child's root-relative rank
	fut *amt.Future[[][]byte]
}

// forwardTree relays the control args to this node's binomial-tree
// children. Children are contacted largest-subtree-first (the deepest branch
// starts earliest) but returned in ascending rank order. The control args
// are detached before forwarding: a child's parcel may be encoded after this
// relay task returns on an error path.
func (l *Locality) forwardTree(root int, args [][]byte) []childCall {
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
		calls[i] = childCall{rel: childRel, fut: l.CallID(dst, l.rt.coll.relayID, fwd)}
	}
	return calls
}

// collRelayAction is every collective's tree hop: it splits the header,
// forwards to its children, runs the kind's local step and combines its
// children's replies in ascending rank order. Broadcast and all-to-all
// children only acknowledge; reduce folds each subtree's aggregate into
// the local partial; gather appends each subtree's tagged records.
func (rt *Runtime) collRelayAction(loc *Locality, args [][]byte) [][]byte {
	h, user, err := splitCollArgs(args)
	if err != nil {
		return collErrf("locality %d: %v", loc.id, err)
	}
	fn := rt.action(h.action)
	if fn == nil {
		return collErrf("locality %d: unknown action id %d", loc.id, h.action)
	}
	var fold FoldFunc
	var consume ActionFunc
	switch h.kind {
	case collKindBcast, collKindGather:
	case collKindReduce:
		if fold = rt.lookupFold(h.fold); fold == nil {
			return collErrf("locality %d: reduce fold %d no longer registered", loc.id, h.fold)
		}
	case collKindAllToAll:
		if consume = rt.action(h.aux); consume == nil {
			return collErrf("locality %d: unknown consume action id %d", loc.id, h.aux)
		}
	default:
		return collErrf("locality %d: unknown collective kind %d", loc.id, h.kind)
	}
	calls := loc.forwardTree(int(h.root), args)

	var acc [][]byte
	switch h.kind {
	case collKindBcast:
		fn(loc, user)
	case collKindReduce:
		acc = fn(loc, user)
	case collKindGather:
		acc = [][]byte{encodeGatherRec(loc.id, fn(loc, user))}
	case collKindAllToAll:
		if err := loc.allToAllStep(h, fn, consume, user); err != nil {
			return collErrf("locality %d: %v", loc.id, err)
		}
	}
	for _, c := range calls {
		part, err := parseCollReply(c.fut.GetTimeout(untilNs(h.deadlineNs)))
		if err != nil {
			return collErrf("locality %d: subtree at rank %d: %v", loc.id, c.rel, err)
		}
		switch h.kind {
		case collKindReduce:
			acc = fold(acc, part)
		case collKindGather:
			acc = append(acc, part...)
		}
	}
	return collOK(acc)
}

// allToAllStep is one node's part of a pairwise-exchange all-to-all:
// produce the N per-destination blocks, send block d to destination d in the
// staggered order me+1, me+2, ... (so no destination takes N simultaneous
// senders), collect the N-1 inbound blocks from the inbox, and hand them —
// indexed by source — to consume. Blocks that beat this step to the node
// wait in the inbox, which either side creates.
func (l *Locality) allToAllStep(h collHdr, produce, consume ActionFunc, user [][]byte) error {
	box := l.collbox(h.id, h.deadlineNs)
	defer l.dropCollbox(h.id)
	n := l.rt.Localities()
	blocks := produce(l, user)
	if len(blocks) != n {
		return fmt.Errorf("alltoall produce returned %d blocks, want %d", len(blocks), n)
	}
	hdr := encodeCollData(h.id, uint32(l.id), h.deadlineNs)
	for k := 1; k < n; k++ {
		dst := (l.id + k) % n
		blk := detachArgs(blocks[dst : dst+1])
		if err := l.ApplyID(dst, l.rt.coll.dataID, [][]byte{hdr, blk[0]}); err != nil {
			return fmt.Errorf("send to %d: %w", dst, err)
		}
	}
	inputs := make([][]byte, n)
	inputs[l.id] = blocks[l.id]
	for k := 1; k < n; k++ {
		src := (l.id - k + n) % n
		msg, err := box.wait(uint32(src), h.deadlineNs)
		if err != nil {
			return fmt.Errorf("recv from %d: %w", src, err)
		}
		if len(msg) > 0 {
			inputs[src] = msg[0]
		}
	}
	consume(l, inputs)
	return nil
}

// collDataAction routes an all-to-all block into the target collective's
// inbox, creating it if the relay has not arrived yet.
func (rt *Runtime) collDataAction(loc *Locality, args [][]byte) [][]byte {
	if len(args) == 0 || len(args[0]) != collDataHdrLen {
		loc.decodeErrors.Add(1)
		return nil
	}
	h := args[0]
	id := binary.LittleEndian.Uint64(h)
	src := binary.LittleEndian.Uint32(h[8:])
	deadlineNs := int64(binary.LittleEndian.Uint64(h[12:]))
	loc.collbox(id, deadlineNs).put(src, detachArgs(args[1:]))
	return nil
}

// ---------------------------------------------------------------------------
// Driver API.

// newCollHdr checks root and action, allocates a collective id and stamps
// the deadline on the monoNs clock.
func (rt *Runtime) newCollHdr(kind byte, root int, timeout time.Duration, action string) (collHdr, error) {
	if root < 0 || root >= rt.Localities() {
		return collHdr{}, fmt.Errorf("invalid root %d", root)
	}
	id, ok := rt.ActionID(action)
	if !ok {
		return collHdr{}, fmt.Errorf("unknown action %q", action)
	}
	return collHdr{
		kind:       kind,
		id:         rt.coll.nextID.Add(1),
		root:       uint32(root),
		action:     id,
		deadlineNs: monoNs() + int64(timeout),
	}, nil
}

// startCollective invokes the relay on the root locality and waits for the
// tree to complete, returning the root relay's payload.
func (rt *Runtime) startCollective(h collHdr, timeout time.Duration, args [][]byte) ([][]byte, error) {
	ctl := append([][]byte{encodeCollHdr(h)}, args...)
	root := int(h.root)
	f := rt.locs[root].CallID(root, rt.coll.relayID, ctl)
	return parseCollReply(f.GetTimeout(timeout))
}

// Broadcast invokes a registered action on every locality, relayed down a
// binomial tree rooted at locality `from` (log N injection steps per node
// instead of N at the root), and waits until the whole tree has run it.
func (rt *Runtime) Broadcast(from int, timeout time.Duration, action string, args ...[]byte) error {
	h, err := rt.newCollHdr(collKindBcast, from, timeout, action)
	if err == nil {
		_, err = rt.startCollective(h, timeout, args)
	}
	if err != nil {
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
	if fold == nil {
		return nil, fmt.Errorf("core: nil fold function")
	}
	h, err := rt.newCollHdr(collKindReduce, root, timeout, action)
	if err != nil {
		return nil, fmt.Errorf("core: reduce of %q: %w", action, err)
	}
	h.fold = rt.registerFold(fold)
	defer rt.dropFold(h.fold)
	acc, err := rt.startCollective(h, timeout, args)
	if err != nil {
		return nil, fmt.Errorf("core: reduce of %q: %w", action, err)
	}
	return acc, nil
}

// Gather invokes an action on every locality, collects the per-locality
// results up a binomial tree rooted at `root`, and returns them indexed by
// locality id.
func (rt *Runtime) Gather(root int, timeout time.Duration, action string, args ...[]byte) ([][][]byte, error) {
	h, err := rt.newCollHdr(collKindGather, root, timeout, action)
	var recs [][]byte
	if err == nil {
		recs, err = rt.startCollective(h, timeout, args)
	}
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

// AllToAll redistributes data between all localities with a pairwise
// exchange. On every locality the `produce` action is invoked with args and
// must return exactly N blobs — blob d is the block destined for locality d.
// Once a locality holds all N inbound blocks (its own included) the
// `consume` action is invoked with N args, arg s being the block sent by
// locality s. AllToAll returns once every locality has consumed.
func (rt *Runtime) AllToAll(timeout time.Duration, produce, consume string, args ...[]byte) error {
	cid, ok := rt.ActionID(consume)
	if !ok {
		return fmt.Errorf("core: unknown action %q", consume)
	}
	h, err := rt.newCollHdr(collKindAllToAll, 0, timeout, produce)
	if err == nil {
		h.aux = cid
		_, err = rt.startCollective(h, timeout, args)
	}
	if err != nil {
		return fmt.Errorf("core: alltoall %q/%q: %w", produce, consume, err)
	}
	return nil
}
