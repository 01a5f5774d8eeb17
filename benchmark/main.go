// Command benchmark is the repository's one repeatable benchmark: seven
// closed-loop workloads over the public API of the runtime, three gated
// end-to-end metrics per workload, per-layer counters, and a layer walk that
// times each layer's entry points on their own. See README.md in this
// directory.
//
//	go run ./benchmark                        every workload, end-to-end metrics
//	go run ./benchmark -workload pingpong_8b -trace 1
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"hpxgo/internal/stats"
)

// metricSpec declares one metric of BENCHMARK.json.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the gated metrics, the same three on every workload; what an
// "operation" is differs and each workload's alias says it (one-way leg,
// parcel executed at the receiver, 1 MiB transfer, GET or PUT, time step).
// The median and the 99th percentile are not among them: see bench.op_p50_us
// and bench.op_p99_us below.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ungated metrics of a traced run, in datapath order.
var perLayer = []metricSpec{
	// The median latency of an operation as the driver sees it. Ungated: on
	// serve_zipf_rw it is a 0.1-0.3 us cache hit, which a shared 2-vCPU
	// host cannot repeat within any bound the contract allows.
	{name: "bench.op_p50_us", unit: "us", better: "lower"},
	// The 99th percentile, 0 where a run has fewer than ten samples beyond
	// it (octotiger_4n). Ungated: ten runs of unchanged code spread it 23 % on
	// pingpong_8b and 12-13 % on flood_64b_direct and serve_uniform_miss.
	{name: "bench.op_p99_us", unit: "us", better: "lower"},
	// Counter deltas over the measured window.
	{name: "parcel.parcels_per_msg", unit: "count", better: "higher"},
	{name: "parcel.cache_exhausted", unit: "count", better: "lower"},
	{name: "fabric.pkts_per_op", unit: "count", better: "lower"},
	{name: "fabric.wire_bytes_per_payload_byte", unit: "count", better: "lower"},
	{name: "fabric.backpressured_per_op", unit: "count", better: "lower"},
	{name: "fabric.retransmits", unit: "count", better: "lower"},
	{name: "lci.progress_calls_per_op", unit: "count", better: "lower"},
	{name: "lci.unexpected_frac", unit: "frac", better: "lower"},
	{name: "lci.long_per_op", unit: "count", better: "lower"},
	{name: "core.inline_frac", unit: "frac", better: "higher"},
	{name: "core.inline_segment_frac", unit: "frac", better: "higher"},
	{name: "core.inline_spilled_per_op", unit: "count", better: "lower"},
	{name: "core.decode_errors", unit: "count", better: "lower"},
	{name: "amt.tasks_per_op", unit: "count", better: "lower"},
	{name: "serve.hit_rate", unit: "frac", better: "higher"},
	{name: "serve.coalesced_frac", unit: "frac", better: "higher"},
	{name: "serve.shard_calls_per_get", unit: "count", better: "lower"},
	{name: "serve.shed_frac", unit: "frac", better: "lower"},
	{name: "octotiger.parcels_per_step", unit: "count", better: "lower"},
	{name: "octotiger.wire_bytes_per_step", unit: "B", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "proc.gc_pause_frac", unit: "frac", better: "lower"},
	{name: "proc.heap_inuse_mb", unit: "MB", better: "lower"},
	// Median span around the driver's own calls.
	{name: "core.apply_ns", unit: "ns", better: "lower"},
	{name: "core.call_issue_ns", unit: "ns", better: "lower"},
	{name: "core.call_wait_ns", unit: "ns", better: "lower"},
	{name: "serve.get_hit_ns", unit: "ns", better: "lower"},
	{name: "serve.get_miss_ns", unit: "ns", better: "lower"},
	{name: "serve.put_ns", unit: "ns", better: "lower"},
	{name: "octotiger.step_ns", unit: "ns", better: "lower"},
	// The layer walk.
	{name: "serialization.encode_64b_ns", unit: "ns", better: "lower"},
	{name: "serialization.decode_into_64b_ns", unit: "ns", better: "lower"},
	{name: "serialization.encode_16k_ns", unit: "ns", better: "lower"},
	{name: "serialization.decode_16k_ns", unit: "ns", better: "lower"},
	{name: "wire.bundle_frame_ns_per_msg", unit: "ns", better: "lower"},
	{name: "parcelport.header_codec_ns", unit: "ns", better: "lower"},
	{name: "parcelport.agg_send_ns_per_msg", unit: "ns", better: "lower"},
	{name: "parcelport.agg_msgs_per_bundle", unit: "count", better: "higher"},
	{name: "parcelport.agg_age_flush_frac", unit: "frac", better: "lower"},
	{name: "parcel.put_ns", unit: "ns", better: "lower"},
	{name: "fabric.inject_poll_8b_ns", unit: "ns", better: "lower"},
	{name: "fabric.inject_poll_16k_ns", unit: "ns", better: "lower"},
	{name: "fabric.poll_empty_ns", unit: "ns", better: "lower"},
	{name: "lci.medium_send_recv_ns", unit: "ns", better: "lower"},
	{name: "lci.put_ns", unit: "ns", better: "lower"},
	{name: "lci.cq_pop_ns", unit: "ns", better: "lower"},
	{name: "lci.long_16k_ns", unit: "ns", better: "lower"},
	{name: "lci.long_1m_ns", unit: "ns", better: "lower"},
	{name: "mpisim.eager_send_recv_ns", unit: "ns", better: "lower"},
	{name: "amt.spawn_exec_ns", unit: "ns", better: "lower"},
	{name: "amt.spawn_batch_ns_per_task", unit: "ns", better: "lower"},
	{name: "amt.run_inline_ns", unit: "ns", better: "lower"},
	{name: "amt.future_set_get_ns", unit: "ns", better: "lower"},
	{name: "core.deliver_1_ns", unit: "ns", better: "lower"},
	{name: "core.deliver_32_ns_per_parcel", unit: "ns", better: "lower"},
	{name: "core.deliver_allocs", unit: "count", better: "lower"},
	{name: "serve.cache_hit_ns", unit: "ns", better: "lower"},
	{name: "serve.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "stats.hist_record_ns", unit: "ns", better: "lower"},
	{name: "trace.event_ns", unit: "ns", better: "lower"},
	// Derived.
	{name: "budget.covered_frac", unit: "frac", better: "higher"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
}

// spanMetrics maps the span medians onto their per-layer metric names.
var spanMetrics = map[spanName]string{
	spanApply: "core.apply_ns", spanCallIssue: "core.call_issue_ns", spanCallWait: "core.call_wait_ns",
	spanGetHit: "serve.get_hit_ns", spanGetMiss: "serve.get_miss_ns", spanPut: "serve.put_ns", spanStep: "octotiger.step_ns",
}

// provenance says what produced a report.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Plan       plan   `json:"plan"`
	Traced     bool   `json:"traced"`
	Started    string `json:"started"`
}

// report is the full -json document.
type report struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

// gitCommit asks git for HEAD; a checkout without history says "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// traceResult completes a traced run: span medians, the layer walk, the
// budget and the tracing overhead join the counter metrics.
func traceResult(w workload, res *result, seed int64) error {
	for name, v := range res.tracer.medians() {
		if m, ok := spanMetrics[name]; ok {
			res.PerLayer[m] = metric{Value: v}
		}
	}
	walk, allocs, err := layerWalk(res.tracer, seed)
	if err != nil {
		return fmt.Errorf("layer walk: %w", err)
	}
	res.WalkAllocs = allocs
	for name, v := range walk {
		res.PerLayer[name] = metric{Value: v}
	}
	var covered float64
	for _, t := range w.budget {
		covered += t.count * walk[t.metric]
	}
	res.PerLayer["budget.covered_frac"] = metric{Value: ratio(covered, res.PerLayer["bench.op_p50_us"].Value*1e3)}
	var on, off []float64
	for _, row := range res.Segments {
		if row.Traced {
			on = append(on, row.OpsPerS)
		} else {
			off = append(off, row.OpsPerS)
		}
	}
	res.PerLayer["trace.overhead_frac"] = metric{Value: 1 - ratio(stats.Median(on), stats.Median(off))}
	for _, spec := range perLayer {
		m := res.PerLayer[spec.name] // absent = the layer is not on this workload's path
		m.Unit, m.Better = spec.unit, spec.better
		res.PerLayer[spec.name] = m
	}
	return nil
}

// contractLine is the last line of standard output: the object the driver
// reads.
func contractLine(res *result, traced bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, specs := res.EndToEnd, endToEnd
	if traced {
		src, specs = res.PerLayer, perLayer
	}
	metrics := map[string]val{}
	for _, spec := range specs {
		metrics[spec.name] = val{src[spec.name].Value, spec.unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b)
}

func printResult(w workload, res *result, traced bool) {
	fmt.Printf("== %s  (%d driver goroutine(s), %d operations, %d failed)\n", w.name, res.Drivers, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED CHECK: %s\n", f)
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, spec := range endToEnd {
		m := res.EndToEnd[spec.name]
		fmt.Printf("   %-22s %14.4f %-5s (%s is better, bound %.2f, %d samples)\n", spec.name, m.Value, m.Unit, spec.better, spec.bound, m.Samples)
	}
	aliases := make([]string, 0, len(res.Aliases))
	for name := range res.Aliases {
		aliases = append(aliases, name)
	}
	sort.Strings(aliases)
	for _, name := range aliases {
		if _, generic := res.EndToEnd[name]; generic {
			continue
		}
		fmt.Printf("   %-22s %14.4f %-5s (alias)\n", name, res.Aliases[name].Value, res.Aliases[name].Unit)
	}
	if traced {
		for _, spec := range perLayer {
			fmt.Printf("   %-38s %14.4f %s\n", spec.name, res.PerLayer[spec.name].Value, spec.unit)
		}
	}
}

// selfcheck runs the whole set twice, the second time in reverse order, and
// compares every gated metric against its bound.
func selfcheck(ws []workload, seed int64, p plan) bool {
	sets := [2]map[string]*result{{}, {}}
	for pass := 0; pass < 2; pass++ {
		order := append([]workload(nil), ws...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runWorkload(w, seed, p, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return false
			}
			sets[pass][w.name] = res
			fmt.Printf("set %d  %-20s ops_per_s %12.1f  failed %d\n", pass+1, w.name, res.EndToEnd["ops_per_s"].Value, res.Failed)
		}
	}
	ok := true
	fmt.Printf("%-20s %-10s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range ws {
		a, b := sets[0][w.name], sets[1][w.name]
		if a.Failed+b.Failed > 0 {
			ok = false
		}
		for _, spec := range endToEnd {
			x, y := a.EndToEnd[spec.name].Value, b.EndToEnd[spec.name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > spec.bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-20s %-10s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, spec.name, x, y, 100*diff, 100*spec.bound, verdict)
		}
	}
	return ok
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "seed of every generated input (payloads, key streams, octree refinement)")
		name      = flag.String("workload", "all", "workload to run, or all")
		seconds   = flag.Float64("seconds", 14, "measured time per workload, split evenly over the segments")
		segments  = flag.Int("segments", 7, "segments measured per instance; each metric is the median over all segments")
		segment   = flag.Duration("segment", 0, "segment length; overrides -seconds")
		traceArg  = flag.String("trace", "0", "0: end-to-end run. 1: traced run (spans, layer walk, per-layer metrics). FILE: traced run that also writes the spans as Chrome trace JSON")
		jsonPath  = flag.String("json", "", "write the full report (provenance, per-segment raw values, every metric) to this file")
		selfCheck = flag.Bool("selfcheck", false, "run every workload twice in opposite orders and compare the gated metrics against their bounds")
	)
	flag.Parse()

	p := plan{Instances: instances, Segments: *segments, Segment: *segment}
	if p.Segment <= 0 && p.Segments > 0 {
		p.Segment = time.Duration(*seconds / float64(p.Instances*p.Segments) * float64(time.Second))
	}
	if p.Segments < 1 || p.Segment <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need at least one segment of positive length")
		os.Exit(2)
	}
	var ws []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	traced := *traceArg != "0" && *traceArg != ""
	tracePath := ""
	if traced && *traceArg != "1" {
		tracePath = *traceArg
	}

	// A lost message would park a driver on its future for ever; fail loudly
	// instead. Three times the planned time covers set-up, replay and walk.
	runs := len(ws)
	if *selfCheck {
		runs *= 2
	}
	limit := time.Duration(runs) * (3*time.Duration(p.Instances*p.Segments)*p.Segment + 40*time.Second)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v; giving up\n", limit)
		os.Exit(3)
	})

	if *selfCheck {
		if !selfcheck(ws, *seed, p) {
			os.Exit(1)
		}
		return
	}

	rep := report{Provenance: provenance{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: *seed, Plan: p, Traced: traced, Started: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("benchmark: commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d, %d instances x %d segments of %v, loopback only (simulated fabric, one process)\n",
		rep.Provenance.Commit, rep.Provenance.GoVersion, rep.Provenance.GOMAXPROCS, rep.Provenance.NumCPU, *seed, p.Instances, p.Segments, p.Segment)
	failed := false
	var lines []string
	for _, w := range ws {
		res, err := runWorkload(w, *seed, p, traced)
		if err == nil && traced {
			err = traceResult(w, res, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if tracePath != "" {
			path := tracePath
			if len(ws) > 1 {
				path = strings.TrimSuffix(tracePath, ".json") + "." + w.name + ".json"
			}
			if err := res.tracer.writeChrome(path); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
				os.Exit(1)
			}
		}
		printResult(w, res, traced)
		rep.Results = append(rep.Results, res)
		lines = append(lines, contractLine(res, traced))
		failed = failed || res.Failed > 0
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
			os.Exit(1)
		}
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed {
		os.Exit(1)
	}
}
