package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// Machine-readable datapath artifacts: the fabric and receiver-datapath
// microbenchmarks that results/fabric-datapath.txt and
// results/receiver-datapath.txt record as prose, re-measured through the
// public APIs and emitted as BENCH_fabric.json / BENCH_deliver.json in the
// same artifact format as the other BENCH_*.json files. The structural
// claims those prose files narrate — poll cost flat in cluster size,
// zero-allocation steady state, batching amortization — are validated on
// every regeneration.

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

// fabricInjectPoll measures one eager inject → poll → release cycle.
func fabricInjectPoll(nodes, payloadBytes, iters int) (Record, error) {
	n, err := fabric.NewNetwork(fabric.Config{Nodes: nodes})
	if err != nil {
		return Record{}, err
	}
	src, dst := n.Device(1), n.Device(0)
	payload := make([]byte, payloadBytes)
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

// measureRows runs every row and names its record.
func measureRows(rows []dpRow, iters int) ([]Record, error) {
	recs := make([]Record, 0, len(rows))
	for _, r := range rows {
		rec, err := r.run(iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.op, err)
		}
		rec.Op = r.op
		recs = append(recs, rec)
	}
	return recs, nil
}

// measureFabric measures the fabric datapath rows: eager inject/poll at two
// payload sizes, then one-packet and quiescent polls across cluster sizes.
func measureFabric(sc Scale) ([]Record, error) {
	rows := []dpRow{
		{"fabric/injectpoll/8B", func(n int) (Record, error) { return fabricInjectPoll(2, 8, n) }},
		{"fabric/injectpoll/16KiB", func(n int) (Record, error) { return fabricInjectPoll(2, 16384, n) }},
	}
	for _, nodes := range []int{2, 16, 64} {
		rows = append(rows, dpRow{fmt.Sprintf("fabric/poll1/n%d", nodes),
			func(n int) (Record, error) { return fabricInjectPoll(nodes, 64, n) }})
	}
	for _, nodes := range []int{2, 16, 64} {
		rows = append(rows, dpRow{fmt.Sprintf("fabric/pollempty/n%d", nodes),
			func(n int) (Record, error) { return fabricPollEmpty(nodes, n) }})
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

// bundleTap is an inner parcelport that keeps the last transfer it was
// asked to send: how deliverHPXBRow gets hold of a real aggregation bundle.
type bundleTap struct{ last []byte }

func (*bundleTap) Name() string                       { return "tap" }
func (*bundleTap) Start(parcelport.DeliverFunc) error { return nil }
func (*bundleTap) Stop()                              {}
func (*bundleTap) BackgroundWork(int) bool            { return false }
func (b *bundleTap) Send(_ int, m *serialization.Message) {
	b.last = append([]byte(nil), m.NonZeroCopy...)
	m.Done()
}

// deliverHPXBRow measures the receiver datapath for the shape the aggregated
// fast path really produces: one HPXB bundle of `frames` frames, each a 64 B
// parcel of an inline-hinted action written by Aggregator.SendParcel —
// decoded once and run to completion on the delivering goroutine.
func deliverHPXBRow(frames, iters int) (Record, error) {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci_agg"})
	if err != nil {
		return Record{}, err
	}
	var ran atomic.Uint64 // a batch that trips the wall cap spills to runners
	var want uint64
	noop := rt.MustRegisterInlineAction("bench_dp_inline_noop", func(*core.Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		return Record{}, err
	}
	defer rt.Shutdown()
	var tap bundleTap
	agg := parcelport.NewAggregator(&tap, 2, parcelport.AggConfig{FlushBytes: 1 << 20, FlushDelay: time.Hour})
	for i := 0; i < frames; i++ {
		if !agg.SendParcel(0, serialization.Parcel{Source: 1, Dest: 0, Action: noop, Args: [][]byte{make([]byte, 64)}}) {
			return Record{}, fmt.Errorf("SendParcel refused frame %d", i)
		}
	}
	agg.Stop() // flushes the bundle into the tap
	m := &serialization.Message{NonZeroCopy: tap.last}
	l := rt.Locality(0)
	cycle := func() error {
		l.Deliver(m)
		want += uint64(frames)
		for ran.Load() < want {
			runtime.Gosched()
		}
		return nil
	}
	for i := 0; i < 16; i++ { // warm the pooled delivery context
		if err := cycle(); err != nil {
			return Record{}, err
		}
	}
	inline0 := l.InlineExecuted()
	rec, err := measureOp(iters, cycle)
	if got, all := l.InlineExecuted()-inline0, uint64(iters*frames); err == nil && got < all*9/10 {
		err = fmt.Errorf("%d of %d parcels ran inline: the row did not measure the inline lane", got, all)
	}
	return rec, err
}

// spawnBatchRow measures amt.Scheduler.SpawnBatch for a bundle-sized burst.
func spawnBatchRow(batch, iters int) (Record, error) {
	s := amt.New(amt.Config{Workers: 1})
	if err := s.Start(); err != nil {
		return Record{}, err
	}
	defer s.Stop()
	var ran atomic.Uint64 // runners are concurrent goroutines even with one worker
	var want uint64
	task := func() { ran.Add(1) }
	tasks := make([]func(), batch)
	for i := range tasks {
		tasks[i] = task
	}
	cycle := func() error {
		s.SpawnBatch(tasks)
		want += uint64(batch)
		for ran.Load() < want {
			runtime.Gosched()
		}
		return nil
	}
	for i := 0; i < 16; i++ {
		if err := cycle(); err != nil {
			return Record{}, err
		}
	}
	return measureOp(iters, cycle)
}

// measureDeliver measures the receiver-datapath rows: multi-parcel message
// delivery (spawned) at three sizes, one aggregation bundle delivered inline,
// then the batched spawn alone.
func measureDeliver(sc Scale) ([]Record, error) {
	var rows []dpRow
	for _, bundle := range []int{1, 8, 32} {
		rows = append(rows, dpRow{fmt.Sprintf("deliver/bundle%d", bundle),
			func(n int) (Record, error) { return deliverBundleRow(bundle, n) }})
	}
	rows = append(rows, dpRow{"deliver/hpxb32", func(n int) (Record, error) { return deliverHPXBRow(32, n) }})
	for _, batch := range []int{8, 32} {
		rows = append(rows, dpRow{fmt.Sprintf("spawn/batch%d", batch),
			func(n int) (Record, error) { return spawnBatchRow(batch, n) }})
	}
	return measureRows(rows, sc.DeliverIters)
}
