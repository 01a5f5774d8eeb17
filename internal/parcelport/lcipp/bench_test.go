package lcipp

import (
	"sync/atomic"
	"testing"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// benchPP builds the receiving LCI parcelport on node 0 of a zero-latency
// 2-node fabric in worker-progress mode, so one BackgroundWork call is one
// whole pass — an lci Progress, the completion drain and the retry list —
// run on the benchmark goroutine, plus a sender on node 1. Each delivered
// message's buffers are released and counted.
func benchPP(b *testing.B) (pp, sender *Parcelport, delivered *atomic.Int64) {
	b.Helper()
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Progress: parcelport.WorkerProgress}
	if pp, err = New(lci.NewDevice(net.Device(0), lci.Config{}, nil), nil, cfg); err != nil {
		b.Fatal(err)
	}
	if sender, err = New(lci.NewDevice(net.Device(1), lci.Config{}, nil), nil, cfg); err != nil {
		b.Fatal(err)
	}
	delivered = new(atomic.Int64)
	if err := pp.Start(func(m *serialization.Message) {
		m.Owner.Release()
		delivered.Add(1)
	}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pp.Stop)
	return pp, sender, delivered
}

// BenchmarkProgressIdle is one background pass with nothing queued: the
// fixed cost an idle pinned progress thread pays per spin.
func BenchmarkProgressIdle(b *testing.B) {
	pp, _, _ := benchPP(b)
	b.ReportAllocs()
	for b.Loop() {
		if pp.BackgroundWork(0) {
			b.Fatal("idle pass found work")
		}
	}
}

// BenchmarkProgressDrain64 is the background passes that deliver 64 arrived
// 64 B direct-path puts (connectionless headers, as SendParcel posts them
// with aggregation off): the first pass's lci Progress drains all 64 from
// the fabric, the completion drain delivers them over that pass and the
// next. ns/op is per 64 puts; ns/put divides it out.
func BenchmarkProgressDrain64(b *testing.B) {
	const batch = 64
	pp, sender, delivered := benchPP(b)
	p := serialization.Parcel{Source: 1, Dest: 0, Action: 1, Args: [][]byte{make([]byte, 64)}}
	inject := func() {
		for i := 0; i < batch; i++ {
			if !sender.SendParcel(0, p) {
				b.Fatal("direct send refused")
			}
		}
	}
	drain := func(want int64) {
		for delivered.Load() < want {
			pp.BackgroundWork(0)
		}
	}
	inject() // warm the pools
	drain(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inject()
		want := delivered.Load() + batch
		b.StartTimer()
		drain(want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/put")
}
