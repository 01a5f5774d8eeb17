package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode keeps the declaration the driver reads and the
// tables the program reports from saying the same thing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(decl.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads declared, %d in code (limit 2..8)", len(decl.Workloads), len(ws))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range ws {
		unique(w.name)
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
		for _, term := range w.budget {
			found := false
			for _, spec := range perLayer {
				found = found || spec.name == term.metric
			}
			if !found {
				t.Errorf("workload %s: budget term %q is not a per-layer metric", w.name, term.metric)
			}
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in code (limit 16)", len(decl.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, spec := range endToEnd {
		unique(spec.name)
		d := decl.EndToEnd[i]
		if d.Name != spec.name || d.Unit != spec.unit || d.Better != spec.better || d.Bound != spec.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, d, spec)
		}
		if spec.bound <= 0 || spec.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", spec.name, spec.bound)
		}
		hasSetup = hasSetup || (spec.name == "setup_s" && spec.unit == "s" && spec.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in code (limit 128)", len(decl.PerLayer), len(perLayer))
	}
	for i, spec := range perLayer {
		unique(spec.name)
		d := decl.PerLayer[i]
		if d.Name != spec.name || d.Unit != spec.unit || d.Better != spec.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, d, spec)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", decl.RunSeconds)
	}
}

// TestSmoke runs every workload traced on a plan of a few tens of
// milliseconds and checks the shape of what comes out: every declared metric
// exactly once, no others, a parseable span file in which every parent
// exists, and no failed output check.
func TestSmoke(t *testing.T) {
	defer func(w, r time.Duration) { warmFor, walkRepTime = w, r }(warmFor, walkRepTime)
	warmFor, walkRepTime = 20*time.Millisecond, 100*time.Microsecond
	p := plan{Instances: 2, Segments: 2, Segment: 50 * time.Millisecond}
	dir := t.TempDir()
	for _, w := range workloads() {
		res, err := runWorkload(w, 7, p, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := traceResult(w, res, 7); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if res.Drivers > 2 {
			t.Errorf("%s: %d driver goroutines", w.name, res.Drivers)
		}
		if len(res.Segments) != p.Instances*p.Segments {
			t.Errorf("%s: %d segment rows, want %d", w.name, len(res.Segments), p.Instances*p.Segments)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.EndToEnd), len(endToEnd))
		}
		for _, spec := range endToEnd {
			if m, ok := res.EndToEnd[spec.name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); it must never be 0", w.name, spec.name, m.Value, ok)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.PerLayer), len(perLayer))
		}
		for _, spec := range perLayer {
			if _, ok := res.PerLayer[spec.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, spec.name)
			}
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res, traced)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != want {
				t.Errorf("%s: result line (traced %v) has correct=%v attempted=%d and %d metrics, want %d", w.name, traced, line.Correct, line.Attempted, len(line.Metrics), want)
			}
		}

		path := filepath.Join(dir, w.name+".json")
		if err := res.tracer.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
				Args struct {
					ID, Parent uint32
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: span file does not parse: %v", w.name, err)
		}
		ids := map[uint32]bool{}
		for _, e := range file.TraceEvents {
			ids[e.Args.ID] = true
		}
		walked, driverSpans := 0, 0
		for _, e := range file.TraceEvents {
			for _, n := range spanNames {
				if e.Name == n {
					driverSpans++
				}
			}
			if e.Args.Parent != 0 && !ids[e.Args.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", w.name, e.Args.ID, e.Name, e.Args.Parent)
			}
			if e.Dur < 0 {
				t.Errorf("%s: span %d (%s) ends before it starts", w.name, e.Args.ID, e.Name)
			}
			if e.Name == "lci.put_ns" {
				walked++
			}
		}
		if walked != 1 || driverSpans == 0 {
			t.Errorf("%s: span file has %d spans around driver calls and %d lci.put_ns walk spans", w.name, driverSpans, walked)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int32, 1000)
	for i := range sorted {
		sorted[i] = int32(i + 1)
	}
	if v, ok := percentile(sorted, 50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v, %v", v, ok)
	}
	// 1000 samples put exactly ten beyond the 99th percentile; 999 do not.
	if v, ok := percentile(sorted, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, supported", v, ok)
	}
	if _, ok := percentile(sorted[:999], 99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if _, ok := percentile(nil, 99); ok {
		t.Error("p99 of nothing reported as supported")
	}
	// Half the segments supporting a percentile are enough for the median of
	// theirs; with fewer, the run's pooled samples (ns) stand in.
	if v, ok := overSegments([]float64{1, 2, 3}, 6, sorted, 99); v != 2 || !ok {
		t.Errorf("3 of 6 segments: %v, %v; want their median 2", v, ok)
	}
	if v, ok := overSegments([]float64{1, 2}, 6, sorted, 99); v != 0.99 || !ok {
		t.Errorf("2 of 6 segments: %v, %v; want the pooled 0.99 us", v, ok)
	}
	if _, ok := overSegments(nil, 6, sorted[:100], 99); ok {
		t.Error("p99 of 100 pooled samples reported as supported")
	}
}
