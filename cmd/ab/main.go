// Command ab is the paired before/after series behind every performance
// claim in this repository (`make ab PARENT=<rev>`): it extracts a parent
// revision into a directory of its own, then for each workload of
// BENCHMARK.json runs N interleaved parent/change pairs with the benchmark's
// own command — alternating which side goes first, one seed per pair — and
// prints, per metric, both medians, the distance between the parent's
// quartiles, how many pairs the change won, and a verdict: `better` or
// `worse` only when the change won (lost) at least nine tenths of the pairs
// and the medians differ by more than the parent's own spread, `unresolved`
// otherwise (and no verdict at all from fewer than ten pairs). The change is the working tree it is started in, committed or
// not. It never edits the benchmark and decides nothing: it prints every run
// it made.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only
}

// result is the benchmark's last stdout line.
type result struct {
	Attempted int  `json:"attempted"`
	Correct   bool `json:"correct"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		parent    = flag.String("parent", "", "revision to compare the working tree against (required)")
		pairs     = flag.Int("n", 10, "interleaved parent/change pairs per workload")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
		seconds   = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "seed of the first pair; pair i runs both sides with seed+i")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics")
		dir       = flag.String("dir", ".bench_build/ab", "where the parent revision is extracted (rebuilt on every start)")
	)
	flag.Parse()
	if *parent == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: ab -parent <rev> [-n pairs] [-workloads a,b] [-seconds s] [-seed n] [-trace 0|1]")
		os.Exit(2)
	}
	if err := run(*parent, *pairs, *workloads, *seconds, *seed, *trace, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(parent string, pairs int, only string, seconds float64, seed int64, trace, dir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json names no command")
	}
	if seconds == 0 {
		seconds = sp.RunSeconds
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if only != "" {
		names = strings.Split(only, ",")
	}
	metrics := sp.EndToEnd
	if trace != "0" {
		metrics = sp.PerLayer
	}

	parentDir := filepath.Join(dir, "parent")
	rev, err := extract(parent, parentDir)
	if err != nil {
		return err
	}
	fmt.Printf("parent %s (%s) in %s; change: working tree; %d pairs x %d workloads x %.0f s, seeds %d..%d, trace %s\n",
		parent, rev, parentDir, pairs, len(names), seconds, seed, seed+int64(pairs)-1, trace)
	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", "."}}

	for _, w := range names {
		fmt.Printf("\n== %s\n", w)
		var runs [2][]result // [side][pair]
		for i := 0; i < pairs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0} // alternate which side runs first
			}
			var pair [2]result
			for _, s := range order {
				args := append(append([]string(nil), sp.Command[1:]...), "--workload", w,
					"--seed", fmt.Sprint(seed+int64(i)), "--seconds", fmt.Sprint(seconds), "--trace", trace)
				r, err := bench(sides[s].dir, sp.Command[0], args)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w, i+1, sides[s].name, err)
				}
				pair[s] = r
				runs[s] = append(runs[s], r)
			}
			fmt.Printf("pair %2d (%s first):", i+1, sides[order[0]].name)
			for _, m := range sp.EndToEnd {
				if _, ok := pair[0].Metrics[m.Name]; ok {
					fmt.Printf("  %s %.6g | %.6g", m.Name, pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value)
				}
			}
			fmt.Printf("  failed %d/%d | %d/%d\n", pair[0].Failed, pair[0].Attempted, pair[1].Failed, pair[1].Attempted)
		}
		report(metrics, runs)
	}
	return nil
}

// extract unpacks revision rev into dir (emptied first) and returns its
// abbreviated commit hash.
func extract(rev, dir string) (string, error) {
	hash, err := exec.Command("git", "rev-parse", "--short", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %w", rev, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("tar: %w", err)
	}
	return strings.TrimSpace(string(hash)), nil
}

// bench runs the benchmark command in dir and parses the last line of its
// standard output. A run that reports failed operations still counts (the
// table shows them); one that prints no result line does not.
func bench(dir, name string, args []string) (result, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("no result line (%v): %s", runErr, strings.TrimSpace(stderr.String()))
	}
	return r, nil
}

// report prints one row per metric the runs carry.
func report(metrics []metricSpec, runs [2][]result) {
	n := len(runs[0])
	fmt.Printf("%-34s %14s %14s %9s %12s %7s  %s\n", "metric", "parent median", "change median", "change", "parent IQR", "wins", "verdict")
	for _, m := range metrics {
		var vals [2][]float64
		for s := range runs {
			for _, r := range runs[s] {
				if v, ok := r.Metrics[m.Name]; ok {
					vals[s] = append(vals[s], v.Value)
				}
			}
		}
		if len(vals[0]) != n || len(vals[1]) != n {
			continue // not reported by this workload
		}
		sign := 1.0
		if m.Better == "lower" {
			sign = -1
		}
		wins, losses := 0, 0
		for i := 0; i < n; i++ {
			switch d := sign * (vals[1][i] - vals[0][i]); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
		pm, cm := quantile(vals[0], 0.5), quantile(vals[1], 0.5)
		iqr := quantile(vals[0], 0.75) - quantile(vals[0], 0.25)
		verdict := "unresolved"
		diff := sign * (cm - pm)
		switch {
		case n < 10:
			verdict = "n/a (under 10 pairs)"
		case diff > iqr && 10*wins >= 9*n:
			verdict = "better"
		case -diff > iqr && 10*losses >= 9*n:
			verdict = "worse"
		}
		rel := "n/a"
		if pm != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/pm)
		}
		if m.Bound > 0 && pm != 0 && -diff/math.Abs(pm) > m.Bound {
			verdict += fmt.Sprintf(" (median past the %.2f bound)", m.Bound)
		}
		fmt.Printf("%-34s %14.6g %14.6g %9s %12.4g %4d/%-2d  %s\n", m.Name+" ["+m.Unit+"]", pm, cm, rel, iqr, wins, n, verdict)
	}
	var failed, attempted [2]int
	incorrect := [2]int{}
	for s := range runs {
		for _, r := range runs[s] {
			failed[s] += r.Failed
			attempted[s] += r.Attempted
			if !r.Correct {
				incorrect[s]++
			}
		}
	}
	fmt.Printf("failed operations: parent %d/%d, change %d/%d; runs with a failed output check: parent %d, change %d\n",
		failed[0], attempted[0], failed[1], attempted[1], incorrect[0], incorrect[1])
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
