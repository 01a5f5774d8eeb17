package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/stats"
)

// tailMinBeyond is how many samples must lie beyond a reported percentile.
const tailMinBeyond = 10

// percentile returns the p-th percentile (nearest rank) of sorted samples.
// ok is false when fewer than tailMinBeyond samples lie beyond it: a tail read
// off a handful of samples is the maximum under another name.
func percentile(sorted []int32, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1]), n-rank >= tailMinBeyond
}

// instances is how many times a run sets the workload up from scratch. Eight
// make setup_s a median, and keep one runtime's lucky or unlucky placement of
// its polling goroutines on the two CPUs from deciding the run (README,
// "Instances and segments").
const instances = 8

// plan is how one run measures: Instances times, it sets the workload up
// from scratch (timing that) and measures Segments segments on it.
type plan struct {
	Instances int           `json:"instances"`
	Segments  int           `json:"segments_per_instance"`
	Segment   time.Duration `json:"segment_ns"`
}

// segmentRow is one segment's raw values, kept in the report so quartiles can
// be recomputed from it. A percentile the segment has too few samples for is 0.
type segmentRow struct {
	Traced   bool    `json:"traced"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	Samples  int     `json:"samples"`
	OpsPerS  float64 `json:"ops_per_s"`
	P50Us    float64 `json:"op_p50_us"`
	P95Us    float64 `json:"op_p95_us"`
	P99Us    float64 `json:"op_p99_us"`
	ElapsedS float64 `json:"elapsed_s"`
	// InlineFrac is the share of the parcels executed during the segment
	// that ran on the inline lane: the lane is on or off for seconds at a
	// time, which the run's average hides.
	InlineFrac float64 `json:"inline_frac"`
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Drivers   int               `json:"drivers"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	SetupS    []float64         `json:"setup_s_raw"`
	Segments  []segmentRow      `json:"segments"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Aliases   map[string]metric `json:"aliases"`
	// WalkAllocs is the heap allocations per call of every layer-walk item.
	WalkAllocs map[string]float64 `json:"walk_allocs_per_call,omitempty"`

	tracer *tracer
	// Ungated companions of op_p95_us, over the untraced segments like it.
	p50Us, p99Us   float64
	inlineSegments float64 // share of segments with over a quarter of the parcels on the inline lane
}

// The public counters the per-layer metrics are derived from, summed over
// localities.
const (
	cParcels = iota
	cMessages
	cCacheExhausted
	cPkts
	cWireBytes
	cBackpressured
	cRetransmits
	cProgressCalls
	cUnexpected
	cLCIRecvd
	cLongSent
	cExecuted
	cInline
	cSpilled
	cDecodeErrors
	cTasks
	cCacheHits
	cShardCalls
	cCoalesced
	cShed
	cMallocs
	cAllocBytes
	cGCCycles
	cGCPauseNs
	cWallNs
	cHeapInuse // a gauge: read off the last snapshot, not differenced
	numCounters
)

// counters is one reading of all of them, or the difference of two.
type counters [numCounters]float64

func snapshot(inst instance) counters {
	var c counters
	rt := inst.runtime()
	for i := 0; i < rt.Localities(); i++ {
		loc := rt.Locality(i)
		ps := loc.ParcelLayer().Stats()
		c[cParcels] += float64(ps.ParcelsSent)
		c[cMessages] += float64(ps.MessagesSent)
		c[cCacheExhausted] += float64(ps.CacheExhausted)
		fs := rt.Network().Device(i).Stats()
		c[cPkts] += float64(fs.InjectedPackets)
		c[cWireBytes] += float64(fs.InjectedBytes)
		c[cBackpressured] += float64(fs.Backpressured)
		c[cRetransmits] += float64(fs.Retransmits)
		if dev := loc.LCIDevice(); dev != nil {
			ls := dev.Stats()
			c[cProgressCalls] += float64(ls.ProgressCalls)
			c[cUnexpected] += float64(ls.Unexpected)
			c[cLCIRecvd] += float64(ls.MediumRecvd + ls.PutsRecvd + ls.LongRecvd)
			c[cLongSent] += float64(ls.LongSent)
		}
		c[cExecuted] += float64(loc.ParcelsExecuted())
		c[cInline] += float64(loc.InlineExecuted())
		c[cSpilled] += float64(loc.InlineSpilled())
		c[cDecodeErrors] += float64(loc.DecodeErrors())
		c[cTasks] += float64(loc.Scheduler().Executed())
	}
	if sp, ok := inst.(servePeek); ok {
		cs := sp.serveStats()
		c[cCacheHits] = float64(cs.CacheHits)
		c[cShardCalls] = float64(cs.ShardCalls)
		c[cCoalesced] = float64(cs.Coalesced)
		c[cShed] = float64(cs.Shed) // the client sees every shed, the shards' own count included
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c[cMallocs] = float64(mem.Mallocs)
	c[cAllocBytes] = float64(mem.TotalAlloc)
	c[cGCCycles] = float64(mem.NumGC)
	c[cGCPauseNs] = float64(mem.PauseTotalNs)
	c[cWallNs] = float64(nowNs())
	c[cHeapInuse] = float64(mem.HeapInuse)
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the counter deltas of the measured windows into the
// per-layer counter metrics. ops is the number of operations completed in
// those windows.
func counterMetrics(w workload, d counters, ops float64) map[string]metric {
	gets := d[cCacheHits] + d[cShardCalls] + d[cCoalesced]
	m := map[string]metric{
		"parcel.parcels_per_msg":             {Value: ratio(d[cParcels], d[cMessages])},
		"parcel.cache_exhausted":             {Value: d[cCacheExhausted]},
		"fabric.pkts_per_op":                 {Value: ratio(d[cPkts], ops)},
		"fabric.wire_bytes_per_payload_byte": {Value: ratio(d[cWireBytes], ops*w.payload)},
		"fabric.backpressured_per_op":        {Value: ratio(d[cBackpressured], ops)},
		"fabric.retransmits":                 {Value: d[cRetransmits]},
		"lci.progress_calls_per_op":          {Value: ratio(d[cProgressCalls], ops)},
		"lci.unexpected_frac":                {Value: ratio(d[cUnexpected], d[cLCIRecvd])},
		"lci.long_per_op":                    {Value: ratio(d[cLongSent], ops)},
		"core.inline_frac":                   {Value: ratio(d[cInline], d[cExecuted])},
		"core.inline_spilled_per_op":         {Value: ratio(d[cSpilled], ops)},
		"core.decode_errors":                 {Value: d[cDecodeErrors]},
		"amt.tasks_per_op":                   {Value: ratio(d[cTasks], ops)},
		"serve.hit_rate":                     {Value: ratio(d[cCacheHits], gets)},
		"serve.coalesced_frac":               {Value: ratio(d[cCoalesced], gets)},
		"serve.shard_calls_per_get":          {Value: ratio(d[cShardCalls], gets)},
		"serve.shed_frac":                    {Value: ratio(d[cShed], ops)},
		"proc.allocs_per_op":                 {Value: ratio(d[cMallocs], ops)},
		"proc.alloc_bytes_per_op":            {Value: ratio(d[cAllocBytes], ops)},
		"proc.gc_cycles_per_s":               {Value: ratio(d[cGCCycles], d[cWallNs]/1e9)},
		"proc.gc_pause_frac":                 {Value: ratio(d[cGCPauseNs], d[cWallNs])},
		"proc.heap_inuse_mb":                 {Value: d[cHeapInuse] / (1 << 20)},
	}
	if w.name == "octotiger_4n" {
		m["octotiger.parcels_per_step"] = metric{Value: ratio(d[cParcels], ops)}
		m["octotiger.wire_bytes_per_step"] = metric{Value: ratio(d[cWireBytes], ops)}
	}
	return m
}

// measure runs the instance's drivers through every segment. Segment i ends
// at start+(i+1)*segment for every driver, so drivers stay in step without
// talking to each other. With tracing on, odd segments record spans and even
// ones do not: the two halves of one run give the tracing overhead.
func measure(inst instance, drivers int, p plan, tr *tracer) [][]seg {
	segs := make([][]seg, p.Segments)
	for i := range segs {
		segs[i] = make([]seg, drivers)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := range segs {
				s := &segs[i][d]
				var segTr *tracer
				t0 := nowNs()
				if tr != nil && i%2 == 1 {
					segTr, s.traced = tr, true
					if d == 0 {
						tr.segment = tr.addRoot(fmt.Sprintf("segment %d", i), t0, t0, 0)
					}
				}
				var in0, ex0 uint64
				if d == 0 {
					in0, ex0 = laneCounts(inst.runtime())
				}
				inst.drive(d, start.Add(time.Duration(i+1)*p.Segment), s, segTr)
				if d == 0 {
					in1, ex1 := laneCounts(inst.runtime())
					s.inline, s.executed = in1-in0, ex1-ex0
				}
				if segTr != nil && d == 0 {
					tr.endRoot(tr.segment, nowNs())
				}
			}
		}(d)
	}
	wg.Wait()
	return segs
}

// laneCounts sums over the localities the parcels executed so far and how many
// of them ran on the inline lane.
func laneCounts(rt *core.Runtime) (inline, executed uint64) {
	for i := 0; i < rt.Localities(); i++ {
		inline += rt.Locality(i).InlineExecuted()
		executed += rt.Locality(i).ParcelsExecuted()
	}
	return inline, executed
}

// overSegments is the run's value of one latency percentile: the median over
// the segments of the segment's own percentile, which one disturbed segment
// cannot move. When fewer than half the segments are long enough to support
// the percentile (an application step takes milliseconds), it is read off the
// whole run's samples instead; ok is false when even those are too few.
func overSegments(perSeg []float64, segments int, pooled []int32, pct float64) (us float64, ok bool) {
	if 2*len(perSeg) >= segments {
		return stats.Median(perSeg), true
	}
	v, ok := percentile(pooled, pct)
	return v / 1e3, ok
}

// latPcts are the latency percentiles a run reports: op_p95_us is gated,
// the median and the 99th are its ungated companions.
var latPcts = [3]float64{50, 95, 99}

// summarize folds the drivers' segments into res: one row per segment, and
// each end-to-end metric as the median over the untraced segments of the
// segment's own value.
func (res *result) summarize(w workload, segs [][]seg) {
	var rates []float64
	var perSeg [len(latPcts)][]float64
	var pooled []int32
	samples, untraced, inlineOn := 0, 0, 0
	for _, drv := range segs {
		row := segmentRow{Traced: drv[0].traced, InlineFrac: ratio(float64(drv[0].inline), float64(drv[0].executed))}
		var lat []int32
		for _, s := range drv {
			row.Ops += s.ops
			row.Failed += s.failed
			row.OpsPerS += ratio(float64(s.ops), s.elapsed.Seconds())
			row.ElapsedS = math.Max(row.ElapsedS, s.elapsed.Seconds())
			lat = append(lat, s.lat...)
		}
		slices.Sort(lat)
		row.Samples = len(lat)
		var us [len(latPcts)]float64
		for i, pct := range latPcts {
			if v, ok := percentile(lat, pct); ok {
				us[i] = v / 1e3
			}
		}
		row.P50Us, row.P95Us, row.P99Us = us[0], us[1], us[2]
		res.Segments = append(res.Segments, row)
		res.Attempted += row.Ops + row.Failed
		res.Failed += row.Failed
		if row.InlineFrac > 0.25 {
			inlineOn++ // a Call is two parcels, only one of them inline-hinted
		}
		if row.Traced {
			continue // end-to-end values come from untraced segments only
		}
		untraced++
		samples += row.Samples
		rates = append(rates, row.OpsPerS)
		for i, v := range us {
			if v > 0 {
				perSeg[i] = append(perSeg[i], v)
			}
		}
		pooled = append(pooled, lat...)
	}
	slices.Sort(pooled)
	var run [len(latPcts)]float64
	var ok [len(latPcts)]bool
	for i, pct := range latPcts {
		run[i], ok[i] = overSegments(perSeg[i], untraced, pooled, pct)
	}
	if !ok[1] {
		res.Notes = append(res.Notes, fmt.Sprintf("op_p95_us: fewer than %d samples beyond it; the run is too short", tailMinBeyond))
	}
	if !ok[2] {
		run[2] = 0 // say nothing rather than the maximum under another name
	}
	res.p50Us, res.p99Us = run[0], run[2]
	res.inlineSegments = ratio(float64(inlineOn), float64(len(res.Segments)))
	values := map[string]float64{"ops_per_s": stats.Median(rates), "op_p95_us": run[1], "setup_s": stats.Median(res.SetupS)}
	res.EndToEnd = map[string]metric{}
	for _, spec := range endToEnd {
		n := samples
		if spec.name == "setup_s" {
			n = len(res.SetupS)
		}
		res.EndToEnd[spec.name] = metric{Value: values[spec.name], Unit: spec.unit, Better: spec.better, Bound: spec.bound, Samples: n}
	}
	res.Aliases = map[string]metric{
		w.rateAlias:            {Value: values["ops_per_s"] * w.rateScale, Unit: w.rateUnit},
		w.latAlias + "_p50_us": {Value: res.p50Us, Unit: "us"},
		w.latAlias + "_p95_us": {Value: run[1], Unit: "us"},
		w.latAlias + "_p99_us": {Value: res.p99Us, Unit: "us"},
	}
}

// runWorkload sets the workload up, measures it and checks its outputs, once
// per instance of the plan. Several instances make setup_s a median, and keep
// one unlucky placement of the runtime's goroutines from deciding the run.
func runWorkload(w workload, seed int64, p plan, traced bool) (*result, error) {
	drivers := w.maxDrivers
	if n := runtime.NumCPU(); drivers > n {
		drivers = n // never more load generators than CPUs
	}
	res := &result{Workload: w.name, Drivers: drivers}
	if traced {
		res.tracer = newTracer(1 << 16)
	}
	setup := w.prepare(seed, drivers)
	var segs [][]seg
	var delta counters
	for k := 0; k < p.Instances; k++ {
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		runtime.GC() // the previous instance is garbage now; collect it off the clock
		before := snapshot(inst)
		segs = append(segs, measure(inst, drivers, p, res.tracer)...)
		after := snapshot(inst)
		res.Failures = append(res.Failures, inst.finish()...)
		inst.runtime().Shutdown()
		for i := range delta {
			delta[i] += after[i] - before[i]
		}
		delta[cHeapInuse] = after[cHeapInuse]
	}
	res.summarize(w, segs)
	ops := float64(res.Attempted - res.Failed)
	res.Failed += len(res.Failures)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Aliases["failed_frac"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "frac"}
	res.PerLayer = counterMetrics(w, delta, ops)
	res.PerLayer["bench.op_p50_us"] = metric{Value: res.p50Us}
	res.PerLayer["bench.op_p99_us"] = metric{Value: res.p99Us}
	res.PerLayer["core.inline_segment_frac"] = metric{Value: res.inlineSegments}
	for _, spec := range perLayer {
		if m, ok := res.PerLayer[spec.name]; ok {
			m.Unit, m.Better = spec.unit, spec.better
			res.PerLayer[spec.name] = m
		}
	}
	return res, nil
}
