package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/serialization"
)

// Datapath artifacts: the fabric and receiver-datapath microbenchmarks that
// results/fabric-datapath.txt and results/receiver-datapath.txt record as
// prose, re-measured through the public APIs. The structural claims those
// prose files narrate — poll cost flat in cluster size, zero-allocation
// steady state, batching amortization — are checked on every run.

// Row names the datapath claims reference.
const (
	dpPoll1N2      = "fabric/poll1/n2"
	dpPoll1N64     = "fabric/poll1/n64"
	dpPollEmptyN2  = "fabric/pollempty/n2"
	dpPollEmptyN64 = "fabric/pollempty/n64"
	dpDeliverB1    = "deliver/bundle1"
	dpDeliverB32   = "deliver/bundle32"
)

// measureOp times iters runs of f (which performs exactly one operation)
// with a GC-settled MemStats bracket around the whole batch, and returns the
// row (wall ns and process-wide mallocs per operation) for the caller to name.
func measureOp(iters int, f func() error) (Record, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return Record{}, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return row("", "ns_op", float64(el.Nanoseconds())/float64(iters),
		"allocs_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(iters)), nil
}

// fabricInjectPoll measures one eager 64 B inject → poll → release cycle.
func fabricInjectPoll(nodes, iters int) (Record, error) {
	n, err := fabric.NewNetwork(fabric.Config{Nodes: nodes})
	if err != nil {
		return Record{}, err
	}
	src, dst := n.Device(1), n.Device(0)
	payload := make([]byte, 64)
	cycle := func() error {
		if err := src.Inject(fabric.Packet{Dst: 0, Data: payload}); err != nil {
			return err
		}
		var p *fabric.Packet
		for p == nil {
			p = dst.Poll()
		}
		p.Release()
		return nil
	}
	// Warm the packet pool so the timed region is steady state.
	for i := 0; i < 64; i++ {
		if err := cycle(); err != nil {
			return Record{}, err
		}
	}
	return measureOp(iters, cycle)
}

// fabricPollEmpty measures the quiescent poll of a device with no traffic.
func fabricPollEmpty(nodes, iters int) (Record, error) {
	n, err := fabric.NewNetwork(fabric.Config{Nodes: nodes})
	if err != nil {
		return Record{}, err
	}
	dst := n.Device(0)
	return measureOp(iters, func() error {
		if dst.Poll() != nil {
			return fmt.Errorf("unexpected packet on quiescent device")
		}
		return nil
	})
}

// dpRow is one datapath artifact row: its name and the harness that
// measures it for a given iteration count.
type dpRow struct {
	op  string
	run func(iters int) (Record, error)
}

// dpRounds is how many slices each row's iterations are split into. The
// rows take turns slice by slice, each slice on a fresh harness, so drift of
// the host over the run lands on every row — and both sides of every ratio
// claim — alike.
const dpRounds = 5

// measureRows runs every row round-robin (dpRounds slices of iters/dpRounds
// iterations each) and names its record: the mean of the slices' per-op
// wall time and allocations.
func measureRows(rows []dpRow, iters int) ([]Record, error) {
	ns := make([]float64, len(rows))
	allocs := make([]float64, len(rows))
	per := max(1, iters/dpRounds)
	for round := 0; round < dpRounds; round++ {
		for i, r := range rows {
			rec, err := r.run(per)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.op, err)
			}
			ns[i] += rec.Num("ns_op") / dpRounds
			allocs[i] += rec.Num("allocs_op") / dpRounds
		}
	}
	recs := make([]Record, len(rows))
	for i, r := range rows {
		recs[i] = row(r.op, "ns_op", ns[i], "allocs_op", allocs[i])
	}
	return recs, nil
}

// pollEmptyScale multiplies a quiescent-poll row's iterations: an empty
// poll costs a few ns, so at the plain count its timed region would be a
// fraction of a millisecond and one interrupt could double a row. Scaled,
// a slice runs for milliseconds and the flatness claim compares code.
const pollEmptyScale = 40

// measureFabric measures one-packet and quiescent polls across cluster
// sizes.
func measureFabric(sc Scale) ([]Record, error) {
	var rows []dpRow
	for _, nodes := range []int{2, 16, 64} {
		rows = append(rows, dpRow{fmt.Sprintf("fabric/poll1/n%d", nodes),
			func(n int) (Record, error) { return fabricInjectPoll(nodes, n) }})
	}
	for _, nodes := range []int{2, 16, 64} {
		rows = append(rows, dpRow{fmt.Sprintf("fabric/pollempty/n%d", nodes),
			func(n int) (Record, error) { return fabricPollEmpty(nodes, n*pollEmptyScale) }})
	}
	return measureRows(rows, sc.FabricIters)
}

// deliverBundleRow measures the receiver datapath — decode, dispatch,
// batch-spawn, execute — for one bundled message of `bundle` 64 B parcels,
// injected through core.Locality.Deliver exactly as the parcelport would.
func deliverBundleRow(bundle, iters int) (Record, error) {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		return Record{}, err
	}
	var ran atomic.Uint64 // bumped by whichever worker runs the action
	var want uint64
	noop := rt.MustRegisterAction("bench_dp_noop", func(*core.Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		return Record{}, err
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	arg := make([]byte, 64)
	ps := make([]*serialization.Parcel, bundle)
	for i := range ps {
		ps[i] = &serialization.Parcel{Source: 1, Dest: 0, Action: noop, Args: [][]byte{arg}}
	}
	m := serialization.Encode(ps, 0)
	cycle := func() error {
		l.Deliver(m)
		want += uint64(bundle)
		for ran.Load() < want { // Gosched lets the tasks run on a 1-CPU host
			runtime.Gosched()
		}
		return nil
	}
	for i := 0; i < 16; i++ { // warm the runner cache and pooled state
		if err := cycle(); err != nil {
			return Record{}, err
		}
	}
	return measureOp(iters, cycle)
}

// measureDeliver measures spawned multi-parcel message delivery of one
// parcel and of a 32-parcel bundle.
func measureDeliver(sc Scale) ([]Record, error) {
	var rows []dpRow
	for _, bundle := range []int{1, 32} {
		rows = append(rows, dpRow{fmt.Sprintf("deliver/bundle%d", bundle),
			func(n int) (Record, error) { return deliverBundleRow(bundle, n) }})
	}
	return measureRows(rows, sc.DeliverIters)
}
