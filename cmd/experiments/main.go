// Command experiments regenerates the tables and figures of the paper's
// evaluation and the repo's BENCH_*.json artifacts. Each paper target prints
// the same rows/series the paper reports (text form; x, y, yerr per point).
//
// Usage:
//
//	experiments [-scale full|quick] [-out dir] <target>...
//
// `experiments -h` lists the targets; the list is generated from the tables
// below and bench.Artifacts, so it cannot drift from what runs.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/stats"
)

// resultsDir holds the committed baselines bench-gate checks against.
const resultsDir = "results"

// provenance stamps each output with enough context to interpret it later.
func provenance(scale string) string {
	host, _ := os.Hostname()
	return fmt.Sprintf("# generated: %s | host: %s | %s/%s GOMAXPROCS=%d | %s | scale: %s\n",
		time.Now().Format(time.RFC3339), host,
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.Version(), scale)
}

// env is what a target runs under.
type env struct {
	sc    bench.Scale
	scale string // the -scale name, recorded in artifacts
	csv   bool
}

// runFunc runs one target: its text, plus side files written next to the
// .txt under -out.
type runFunc func(env) (text string, files map[string][]byte, err error)

// fromFigure adapts a figure generator to a target.
func fromFigure(f func(bench.Scale) (*stats.Figure, error)) runFunc {
	return func(e env) (string, map[string][]byte, error) {
		fig, err := f(e.sc)
		if err != nil {
			return "", nil, err
		}
		if e.csv {
			return fig.RenderCSV(), nil, nil
		}
		return fig.Render(), nil, nil
	}
}

// fromText adapts a scale-dependent text report to a target.
func fromText(f func(bench.Scale) (string, error)) runFunc {
	return func(e env) (string, map[string][]byte, error) {
		s, err := f(e.sc)
		return s, nil, err
	}
}

// fromTable adapts a fixed table to a target.
func fromTable(f func() string) runFunc {
	return func(env) (string, map[string][]byte, error) { return f(), nil, nil }
}

// paperTargets are the paper's tables and figures plus the reproduction's
// own text reports, in `all` order.
var paperTargets = []struct {
	name string
	run  runFunc
}{
	{"table1", fromTable(bench.Table1Text)},
	{"table2", fromTable(func() string { return bench.TableSystemText(bench.Expanse) })},
	{"table3", fromTable(func() string { return bench.TableSystemText(bench.Rostam) })},
	{"fig1", fromFigure(bench.Fig1)},
	{"fig2", fromFigure(bench.Fig2)},
	{"fig3", fromFigure(bench.Fig3)},
	{"fig4", fromFigure(bench.Fig4)},
	{"fig5", fromFigure(bench.Fig5)},
	{"fig6", fromFigure(bench.Fig6)},
	{"fig7", fromFigure(bench.Fig7)},
	{"fig8", fromFigure(bench.Fig8)},
	{"fig9", fromFigure(bench.Fig9)},
	{"fig10", fromFigure(bench.Fig10)},
	{"fig11", fromFigure(bench.Fig11)},
	{"ablation-mpi", fromFigure(bench.AblationMPI)},
	{"ablation-multidev", fromFigure(bench.AblationMultiDevice)},
	{"profile", fromText(bench.ProfileText)},
	{"check", fromText(bench.ClaimsText)},
	{"latency-tails", fromFigure(bench.LatencyTails)},
	{"reliability", fromText(bench.ReliabilityText)},
}

// fromArtifact adapts one bench.Artifact to a target: measure, check the claims,
// emit the table and the BENCH_*.json. A claims failure fails the target and
// prints the rows that broke it.
func fromArtifact(a *bench.Artifact) runFunc {
	return func(e env) (string, map[string][]byte, error) {
		rep, err := a.Run(e.sc, e.scale)
		if err != nil {
			if rep != nil {
				err = fmt.Errorf("%w\n%s", err, a.Text(rep))
			}
			return "", nil, err
		}
		js, err := rep.JSON()
		if err != nil {
			return "", nil, err
		}
		return a.Text(rep), map[string][]byte{a.File: js}, nil
	}
}

// benchGate re-measures every gated artifact and compares it against its
// committed baseline, failing on the first regression or broken claim.
func benchGate(e env) (string, map[string][]byte, error) {
	var tables []string
	for i := range bench.Artifacts {
		a := &bench.Artifacts[i]
		if !a.Gated() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(resultsDir, a.File))
		if err != nil {
			return "", nil, fmt.Errorf("bench-gate: %w (run `experiments -scale quick -out %s %s` and commit the artifact)", err, resultsDir, a.Name)
		}
		committed, err := bench.Parse(data)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", a.File, err)
		}
		fresh, err := a.Run(e.sc, e.scale)
		if fresh == nil { // a claims failure alone is reported by Gate, with the table
			return "", nil, err
		}
		table, err := a.Gate(fresh, committed)
		tables = append(tables, table)
		if err != nil {
			return "", nil, fmt.Errorf("%w\n%s", err, strings.Join(tables, "\n"))
		}
	}
	return strings.Join(tables, "\n"), nil, nil
}

// lookup resolves a target name.
func lookup(name string) runFunc {
	for _, t := range paperTargets {
		if t.name == name {
			return t.run
		}
	}
	for i := range bench.Artifacts {
		if bench.Artifacts[i].Name == name {
			return fromArtifact(&bench.Artifacts[i])
		}
	}
	if name == "bench-gate" {
		return benchGate
	}
	return nil
}

// targetNames lists every target in usage order; allOnly restricts it to
// what `all` expands to (the paper targets and the full-scale sweeps, not
// the quick-pinned baselines or the gate).
func targetNames(allOnly bool) []string {
	var names []string
	for _, t := range paperTargets {
		names = append(names, t.name)
	}
	for _, a := range bench.Artifacts {
		if a.InAll || !allOnly {
			names = append(names, a.Name)
		}
	}
	if !allOnly {
		names = append(names, "bench-gate", "all")
	}
	return names
}

// usage is the -h text.
func usage() string {
	return "usage: experiments [-scale full|quick] [-out dir] [-format text|csv] <target>...\n" +
		"targets: " + strings.Join(targetNames(false), " ") + "\n"
}

func main() {
	scale := flag.String("scale", "full", "experiment scale: full or quick")
	out := flag.String("out", "", "also write each target's output to <dir>/<target>.txt")
	format := flag.String("format", "text", "figure output format: text or csv")
	flag.Usage = func() { fmt.Fprint(os.Stderr, usage()) }
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	e := env{scale: *scale, csv: *format == "csv"}
	switch *scale {
	case "full":
		e.sc = bench.FullScale()
	case "quick":
		e.sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		os.Exit(2)
	}

	targets := flag.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = targetNames(true)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for _, target := range targets {
		run := lookup(target)
		if run == nil {
			fail(fmt.Errorf("%s: unknown target %q", target, target))
		}
		start := time.Now()
		text, files, err := run(e)
		if err != nil {
			fail(fmt.Errorf("%s: %w", target, err))
		}
		text = provenance(*scale) + text
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", target, time.Since(start).Seconds(), text)
		if *out == "" {
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		writes := map[string][]byte{target + ".txt": []byte(text)}
		maps.Copy(writes, files)
		for name, data := range writes {
			if err := os.WriteFile(filepath.Join(*out, name), data, 0o644); err != nil {
				fail(err)
			}
		}
	}
}
