package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcel"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/serve"
	"hpxgo/internal/stats"
	"hpxgo/internal/trace"
	"hpxgo/internal/wire"
)

// The layer walk calls each layer's public entry points on their own, in
// datapath order, with the layers beneath stubbed out or reduced to a
// zero-latency two-node fabric, and reports the time of one call. It runs
// after the workload has shut down, so nothing else is on the CPUs. A number
// here is what the layer costs when nothing waits for it; what a workload
// pays on top is hand-off, wake-up and queueing time.

// walkReps and walkRepTime size one measurement: the median of walkReps
// loops, each calibrated to last about walkRepTime.
const walkReps = 5

var walkRepTime = 8 * time.Millisecond

// timeLoop measures run(n), which performs n iterations of `per` calls
// each, and returns ns and heap allocations per call.
func timeLoop(per int, run func(n int)) (ns, allocs float64) {
	n := 1
	var el time.Duration
	for {
		t0 := time.Now()
		run(n)
		el = time.Since(t0)
		if el >= time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	if scaled := int(float64(n) * float64(walkRepTime) / float64(el)); scaled >= 1 {
		n = scaled
	}
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < walkReps; r++ {
		t0 := time.Now()
		run(n)
		times = append(times, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&ms1)
	calls := float64(n * per)
	return stats.Median(times) / calls, float64(ms1.Mallocs-ms0.Mallocs) / (calls * walkReps)
}

// discardPort is the parcelport beneath a layer under test: it completes
// every send at once and delivers nothing.
type discardPort struct{}

func (discardPort) Name() string                         { return "discard" }
func (discardPort) Start(parcelport.DeliverFunc) error   { return nil }
func (discardPort) Stop()                                {}
func (discardPort) Send(_ int, m *serialization.Message) { m.Done() }
func (discardPort) BackgroundWork(int) bool              { return false }

// walker collects the walk's metrics and spans.
type walker struct {
	out    map[string]float64 // per-layer metric values
	allocs map[string]float64 // heap allocations per call of each timed item
	tr     *tracer
	root   uint32
	err    error
}

// item times one layer entry point and records it as <name> in ns.
func (w *walker) item(name string, per int, run func(n int)) {
	t0 := nowNs()
	ns, allocs := timeLoop(per, run)
	w.out[name] = ns
	w.allocs[name] = allocs
	w.tr.addRoot(name, t0, nowNs(), w.root)
}

func (w *walker) fail(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// layerWalk runs every item. seed fills the payloads.
func layerWalk(tr *tracer, seed int64) (values, allocs map[string]float64, err error) {
	w := &walker{out: map[string]float64{}, allocs: map[string]float64{}, tr: tr}
	start := nowNs()
	w.root = tr.addRoot("layer walk", start, start, 0)
	small := seededBytes(64, uint64(seed))
	mid := seededBytes(16<<10, uint64(seed)+1)
	big := seededBytes(1<<20, uint64(seed)+2)

	w.serialization(small, mid)
	w.wireAndParcelport(small)
	w.fabric(mid)
	w.commLibraries(small, mid, big)
	w.amt()
	w.core(small)
	w.serve()
	w.misc()

	tr.endRoot(w.root, nowNs())
	return w.out, w.allocs, w.err
}

func (w *walker) serialization(small, mid []byte) {
	p64 := &serialization.Parcel{Source: 0, Dest: 1, Action: 3, Args: [][]byte{small}}
	w.item("serialization.encode_64b_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			serialization.EncodeOne(p64, 0).Recycle()
		}
	})
	var buf serialization.DecodeBuf
	m64 := serialization.EncodeOne(p64, 0)
	w.item("serialization.decode_into_64b_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := serialization.DecodeInto(&buf, m64); err != nil {
				w.fail(err)
			}
		}
	})
	p16k := &serialization.Parcel{Source: 0, Dest: 1, Action: 3, Args: [][]byte{mid}}
	w.item("serialization.encode_16k_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			serialization.EncodeOne(p16k, 0).Recycle()
		}
	})
	m16k := serialization.EncodeOne(p16k, 0)
	w.item("serialization.decode_16k_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := serialization.DecodeInto(&buf, m16k); err != nil {
				w.fail(err)
			}
		}
	})
}

func (w *walker) wireAndParcelport(small []byte) {
	p64 := serialization.Parcel{Source: 0, Dest: 1, Action: 3, Args: [][]byte{small}}
	frame := serialization.EncodeOne(&p64, 0).NonZeroCopy
	bundle := make([]byte, 0, 32*(len(frame)+wire.FrameHeaderSize)+wire.BundleHeaderSize)
	w.item("wire.bundle_frame_ns_per_msg", 32, func(n int) {
		for i := 0; i < n; i++ {
			b := wire.BeginBundle(bundle)
			for k := 0; k < 32; k++ {
				b = wire.AppendFrame(b, frame)
			}
			frames := 0
			if err := wire.ForEachFrame(b, func([]byte) error { frames++; return nil }); err != nil || frames != 32 {
				w.fail(fmt.Errorf("bundle walk: %d frames, err %v", frames, err))
			}
		}
	})

	msg := serialization.EncodeOne(&p64, 0)
	hdr := make([]byte, 8192)
	w.item("parcelport.header_codec_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			sz, _, _, err := parcelport.EncodeHeader(hdr, uint32(i), msg, len(hdr), true)
			if err == nil {
				_, err = parcelport.DecodeHeader(hdr[:sz])
			}
			w.fail(err)
		}
	})

	// Back to back, the aggregator flushes by size; this is the flood regime.
	agg := parcelport.NewAggregator(discardPort{}, 2, parcelport.AggConfig{})
	w.fail(agg.Start(func(*serialization.Message) {}))
	send := func() {
		if !agg.SendParcel(1, p64) {
			m := serialization.EncodeOne(&p64, 0)
			m.RecycleOnSent = true
			agg.Send(1, m)
		}
	}
	w.item("parcelport.agg_send_ns_per_msg", 1, func(n int) {
		for i := 0; i < n; i++ {
			send()
			if i%32 == 31 {
				agg.FlushStale() // the idle workers' share of the work
			}
		}
	})
	st := agg.Stats()
	w.out["parcelport.agg_msgs_per_bundle"] = ratio(float64(st.BundledMessages), float64(st.Bundles))
	agg.Stop()

	// One message per 100µs to one destination is the closed-loop serve-miss
	// regime: warm enough to be buffered, too sparse to fill a bundle, so the
	// age deadline decides when it leaves.
	paced := parcelport.NewAggregator(discardPort{}, 2, parcelport.AggConfig{})
	w.fail(paced.Start(func(*serialization.Message) {}))
	t0 := nowNs()
	for i := 0; i < 200; i++ {
		if !paced.SendParcel(1, p64) {
			m := serialization.EncodeOne(&p64, 0)
			m.RecycleOnSent = true
			paced.Send(1, m)
		}
		for next := nowNs() + 100_000; nowNs() < next; {
			paced.FlushStale()
		}
	}
	ps := paced.Stats()
	w.out["parcelport.agg_age_flush_frac"] = ratio(float64(ps.AgeFlushes), float64(ps.Bundles))
	w.tr.addRoot("parcelport.agg_age_flush_frac", t0, nowNs(), w.root)
	paced.Stop()

	layer := parcel.NewLayer(2, parcel.Config{Immediate: true}, func(_ int, m *serialization.Message) { m.Done() })
	w.item("parcel.put_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			layer.PutOne(p64)
		}
	})
}

// quietPair is a two-node zero-latency fabric: what is left is software.
func quietPair(rails int) (*fabric.Network, error) {
	return fabric.NewNetwork(fabric.Config{Nodes: 2, Rails: rails})
}

func (w *walker) fabric(mid []byte) {
	net, err := quietPair(2)
	if err != nil {
		w.fail(err)
		return
	}
	src, dst := net.Device(0), net.Device(1)
	injectPoll := func(payload []byte) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := src.Inject(fabric.Packet{Dst: 1, Data: payload}); err != nil {
					w.fail(err)
					return
				}
				var p *fabric.Packet
				for p == nil {
					p = dst.Poll()
				}
				p.Release()
			}
		}
	}
	w.item("fabric.inject_poll_8b_ns", 1, injectPoll(mid[:8]))
	w.item("fabric.inject_poll_16k_ns", 1, injectPoll(mid))
	w.item("fabric.poll_empty_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if dst.Poll() != nil {
				w.fail(fmt.Errorf("poll_empty: unexpected packet"))
			}
		}
	})
}

func (w *walker) commLibraries(small, mid, big []byte) {
	net, err := quietPair(4)
	if err != nil {
		w.fail(err)
		return
	}
	a, peer := lci.NewDevice(net.Device(0), lci.Config{}, nil), lci.NewDevice(net.Device(1), lci.Config{}, nil)
	cq := lci.NewCompQueue(1024)
	rbuf := make([]byte, len(big))
	w.item("lci.medium_send_recv_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			tag := uint32(i%1000 + 1)
			w.fail(peer.Recvm(0, tag, rbuf[:len(small)], cq, nil))
			w.fail(a.Sendm(1, tag, small, nil, nil))
			for {
				if _, ok := cq.Pop(); ok {
					break
				}
				peer.Progress()
			}
		}
	})
	w.item("lci.put_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			w.fail(a.Putd(1, 1, small))
			for {
				if r, ok := peer.PutCQ().Pop(); ok {
					if r.Pkt != nil {
						r.Pkt.Release()
					}
					break
				}
				peer.Progress()
			}
		}
	})
	req := lci.Request{Type: lci.CompRecv, Rank: 1, Tag: 7}
	w.item("lci.cq_pop_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			cq.Push(req)
			cq.Pop()
		}
	})
	long := func(payload []byte) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				tag := uint32(i%1000 + 1)
				w.fail(peer.Recvl(0, tag, rbuf[:len(payload)], cq, nil))
				for {
					err := a.Sendl(1, tag, payload, nil, nil)
					if err == nil {
						break
					}
					if err != lci.ErrRetry {
						w.fail(err)
						return
					}
					a.Progress()
				}
				for {
					if _, ok := cq.Pop(); ok {
						break
					}
					a.Progress()
					peer.Progress()
				}
			}
		}
	}
	w.item("lci.long_16k_ns", 1, long(mid))
	w.item("lci.long_1m_ns", 1, long(big))

	mnet, err := quietPair(2)
	if err != nil {
		w.fail(err)
		return
	}
	world := mpisim.NewWorld(mnet, mpisim.Config{})
	ma, mpeer := world.Comm(0), world.Comm(1)
	w.item("mpisim.eager_send_recv_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			tag := i%1000 + 2
			rr, err := mpeer.Irecv(rbuf[:len(small)], 0, tag)
			if err == nil {
				_, err = ma.Isend(small, 1, tag)
			}
			if err != nil {
				w.fail(err)
				return
			}
			for !rr.Test() {
			}
		}
	})
}

func (w *walker) amt() {
	s := amt.New(amt.Config{Workers: 1})
	w.fail(s.Start())
	defer s.Stop()
	var ran atomic.Int64
	task := func() { ran.Add(1) }
	waitFor := func(want int64) {
		for ran.Load() < want {
			runtime.Gosched()
		}
	}
	w.item("amt.spawn_exec_ns", 1, func(n int) {
		base := ran.Load()
		for i := 0; i < n; i++ {
			s.Spawn(task)
			waitFor(base + int64(i) + 1)
		}
	})
	batch := make([]func(), 32)
	for i := range batch {
		batch[i] = task
	}
	w.item("amt.spawn_batch_ns_per_task", 32, func(n int) {
		base := ran.Load()
		for i := 0; i < n; i++ {
			s.SpawnBatch(batch)
			waitFor(base + int64(i+1)*32)
		}
	})
	w.item("amt.run_inline_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			s.RunInline(task)
		}
	})
	w.item("amt.future_set_get_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			f := amt.NewFuture[int](s)
			f.Set(i, nil)
			if v, _ := f.Get(); v != i {
				w.fail(fmt.Errorf("future returned %d, want %d", v, i))
			}
		}
	})
}

func (w *walker) core(small []byte) {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci_i"})
	if err != nil {
		w.fail(err)
		return
	}
	var ran atomic.Int64
	noop := rt.MustRegisterAction("bm_noop", func(*core.Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		w.fail(err)
		return
	}
	defer rt.Shutdown()
	loc := rt.Locality(0)
	message := func(parcels int) *serialization.Message {
		ps := make([]*serialization.Parcel, parcels)
		for i := range ps {
			ps[i] = &serialization.Parcel{Source: 1, Dest: 0, Action: noop, Args: [][]byte{small}}
		}
		return serialization.Encode(ps, 0)
	}
	deliver := func(parcels int) func(n int) {
		m := message(parcels)
		return func(n int) {
			base := ran.Load()
			for i := 0; i < n; i++ {
				loc.Deliver(m)
				for ran.Load() < base+int64(i+1)*int64(parcels) {
					runtime.Gosched()
				}
			}
		}
	}
	w.item("core.deliver_1_ns", 1, deliver(1))
	w.item("core.deliver_32_ns_per_parcel", 32, deliver(32))
	w.out["core.deliver_allocs"] = w.allocs["core.deliver_32_ns_per_parcel"] * 32
}

func (w *walker) serve() {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", Aggregation: true})
	if err != nil {
		w.fail(err)
		return
	}
	svc, err := serve.New(rt, serve.Config{Owners: []int{1}, CacheEntries: 256})
	if err == nil {
		err = rt.Start()
	}
	if err != nil {
		w.fail(err)
		return
	}
	defer rt.Shutdown()
	keys := serve.KeySet(64)
	svc.Preload(keys, make([]byte, serveValueBytes))
	client := svc.Client(0)
	for _, k := range keys { // fill the cache: every Get below is a hit
		if _, _, err := client.Get(k); err != nil {
			w.fail(err)
			return
		}
	}
	w.item("serve.cache_hit_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, _ := client.Get(keys[i%len(keys)]); !ok {
				w.fail(fmt.Errorf("cached key not found"))
			}
		}
	})
	ring := svc.Ring()
	w.item("serve.ring_owner_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			ring.KeyOwner(keys[i%len(keys)])
		}
	})
}

func (w *walker) misc() {
	var h stats.Hist
	w.item("stats.hist_record_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(i & 0xffff)
		}
	})
	t := trace.New(4096)
	t.Enable(true)
	w.item("trace.event_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			t.Emit("bench", "event", int64(i))
		}
	})
}
