// Command experiments regenerates the tables and figures of the paper's
// evaluation and the repo's measured artifact tables. Each paper target
// prints the same rows/series the paper reports (text form; x, y, yerr per
// point); `bench-claims` measures every artifact that makes a structural
// claim and fails if one breaks.
//
// Usage:
//
//	experiments [-scale full|quick] [-out dir] <target>...
//
// `experiments -h` lists the targets; the list is generated from the tables
// below and bench.Artifacts, so it cannot drift from what runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/stats"
)

// provenance stamps each output with enough context to interpret it later.
func provenance(scale string) string {
	host, _ := os.Hostname()
	commit := "unknown" // outside a git checkout
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("# generated: %s | commit: %s | host: %s | %s/%s GOMAXPROCS=%d | %s | scale: %s\n",
		time.Now().Format(time.RFC3339), commit, host,
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.Version(), scale)
}

// env is what a target runs under.
type env struct {
	sc  bench.Scale
	csv bool
}

// runFunc runs one target and returns its text.
type runFunc func(env) (string, error)

// fromFigure adapts a figure generator to a target.
func fromFigure(f func(bench.Scale) (*stats.Figure, error)) runFunc {
	return func(e env) (string, error) {
		fig, err := f(e.sc)
		if err != nil {
			return "", err
		}
		if e.csv {
			return fig.RenderCSV(), nil
		}
		return fig.Render(), nil
	}
}

// fromText adapts a scale-dependent text report to a target.
func fromText(f func(bench.Scale) (string, error)) runFunc {
	return func(e env) (string, error) { return f(e.sc) }
}

// fromTable adapts a fixed table to a target.
func fromTable(f func() string) runFunc {
	return func(env) (string, error) { return f(), nil }
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

// fromArtifact adapts one bench.Artifact to a target: measure, check the
// claims, emit the table. A claims failure fails the target and prints the
// rows that broke it.
func fromArtifact(a *bench.Artifact) runFunc {
	return func(e env) (string, error) {
		recs, err := a.Run(e.sc)
		if err != nil {
			if recs != nil {
				err = fmt.Errorf("%w\n%s", err, a.Text(recs))
			}
			return "", err
		}
		return a.Text(recs), nil
	}
}

// claimed lists the artifacts that make at least one claim: what
// bench-claims runs.
func claimed() []*bench.Artifact {
	var as []*bench.Artifact
	for i := range bench.Artifacts {
		if len(bench.Artifacts[i].Claims) > 0 {
			as = append(as, &bench.Artifacts[i])
		}
	}
	return as
}

// benchClaims runs every claimed artifact's target. Every artifact runs even
// after one fails, so a failing run reports every broken claim, each with
// its table.
func benchClaims(e env) (string, error) {
	var tables []string
	var errs []error
	for _, a := range claimed() {
		text, err := fromArtifact(a)(e)
		tables = append(tables, text)
		errs = append(errs, err)
	}
	return strings.Join(tables, "\n"), errors.Join(errs...)
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
	if name == "bench-claims" {
		return benchClaims
	}
	return nil
}

// targetNames lists every target in usage order; allOnly restricts it to
// what `all` expands to (the paper targets and the full-scale sweeps, not
// the quick-scale artifacts or bench-claims).
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
		names = append(names, "bench-claims", "all")
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
	e := env{csv: *format == "csv"}
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
		text, err := run(e)
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
		if err := os.WriteFile(filepath.Join(*out, target+".txt"), []byte(text), 0o644); err != nil {
			fail(err)
		}
	}
}
