package lcipp

import (
	"testing"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
)

// newDrainPP builds a two-device parcelport (distinct put CQs plus a shared
// op CQ — the multi-queue drain set) without starting progress threads, so
// tests can feed the queues synthetic records and observe single drainCQ
// passes. The synthetic CompPut records carry no decodable header, so
// dispatch drops them after the pop — exactly what a starvation test needs:
// pops are observable through Len without side effects.
func newDrainPP(t *testing.T) *Parcelport {
	t.Helper()
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2, DevicesPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	devs := []*lci.Device{
		lci.NewDevice(net.DeviceN(0, 0), lci.Config{}, nil),
		lci.NewDevice(net.DeviceN(0, 1), lci.Config{}, nil),
	}
	sched := amt.New(amt.Config{Workers: 1, Name: "drain-test"})
	pp, err := NewMulti(devs, sched, Config{Progress: parcelport.WorkerProgress})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pp.Stop()
		sched.Stop()
	})
	return pp
}

// TestDrainFairnessOpCQNotStarved is the starvation regression test for the
// shared-budget round-robin drain: a hot put stream on one device must not
// consume the whole per-pass budget before operation completions get a
// turn. A sequential exhaust-one-queue-first drain fails this (the op CQ
// would see none of a budget smaller than the hot backlog).
func TestDrainFairnessOpCQNotStarved(t *testing.T) {
	pp := newDrainPP(t)

	hot := pp.putCQs[0]
	const hotDepth = 1000
	for i := 0; i < hotDepth; i++ {
		hot.Push(lci.Request{Type: lci.CompPut, Rank: 1})
	}
	const opDepth = 4
	for i := 0; i < opDepth; i++ {
		pp.opCQ.Push(lci.Request{Type: lci.CompSend}) // Ctx nil: untracked, dropped
	}

	if !pp.drainCQ() {
		t.Fatal("drainCQ found no work")
	}

	opDrained := opDepth - pp.opCQ.Len()
	if opDrained == 0 {
		t.Fatalf("op CQ starved: hot put stream consumed the whole %d-record budget", drainBatch)
	}
	if hot.Len() == 0 {
		t.Fatal("bounded pass drained the entire hot queue")
	}
	popped := (hotDepth - hot.Len()) + opDrained
	if popped > drainBatch {
		t.Fatalf("pass popped %d records, budget is %d", popped, drainBatch)
	}
}

// TestDrainRotatesStartingQueue checks that successive passes rotate which
// queue is served first, so no queue is systematically favored when every
// queue holds work. With every queue deep, the queue a pass starts on is the
// one it serves most: the budget of drainBatch/drainChunk = 4 chunks covers
// the three queues of newDrainPP once and the starting queue twice.
func TestDrainRotatesStartingQueue(t *testing.T) {
	pp := newDrainPP(t)
	const depth = 4 * drainBatch

	first := make(map[int]bool)
	for pass := 0; pass < len(pp.cqs)*2; pass++ {
		before := make([]int, len(pp.cqs))
		for i, cq := range pp.cqs {
			for cq.Len() < depth {
				cq.Push(lci.Request{Type: lci.CompSend})
			}
			before[i] = cq.Len()
		}
		pp.drainCQ()
		most, mostPopped := -1, 0
		for i, cq := range pp.cqs {
			if popped := before[i] - cq.Len(); popped > mostPopped {
				most, mostPopped = i, popped
			}
		}
		first[most] = true
	}
	if len(first) != len(pp.cqs) {
		t.Fatalf("rotation started on %d of %d queues across passes", len(first), len(pp.cqs))
	}
}

// TestDrainBudgetBoundsOnePass checks the budget is shared across queues,
// not per queue: with every queue deep, one pass pops exactly drainBatch
// records in total.
func TestDrainBudgetBoundsOnePass(t *testing.T) {
	pp := newDrainPP(t)
	const depth = 200
	for _, cq := range pp.cqs {
		for i := 0; i < depth; i++ {
			cq.Push(lci.Request{Type: lci.CompSend})
		}
	}
	pp.drainCQ()
	popped := 0
	for _, cq := range pp.cqs {
		popped += depth - cq.Len()
	}
	if popped != drainBatch {
		t.Fatalf("one pass popped %d records across queues, shared budget is %d", popped, drainBatch)
	}
}
