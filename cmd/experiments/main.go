// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each target prints the same rows/series the paper reports
// (text form; x, y, yerr per point).
//
// Usage:
//
//	experiments [-scale full|quick] [-out dir] <target>...
//
// Targets: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 fig11 ablation-mpi reliability all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/stats"
)

// provenance stamps each output with enough context to interpret it later.
func provenance(scale string) string {
	host, _ := os.Hostname()
	return fmt.Sprintf("# generated: %s | host: %s | %s/%s GOMAXPROCS=%d | %s | scale: %s\n",
		time.Now().Format(time.RFC3339), host,
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.Version(), scale)
}

func main() {
	scale := flag.String("scale", "full", "experiment scale: full or quick")
	out := flag.String("out", "", "also write each target's output to <dir>/<target>.txt")
	format := flag.String("format", "text", "figure output format: text or csv")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale full|quick] [-out dir] <target>...\n")
		fmt.Fprintf(os.Stderr, "targets: table1 table2 table3 fig1..fig11 ablation-mpi ablation-multidev profile check latency-tails reliability collectives msgrate-bench rendezvous-bench latency-bench serve inline fabric-bench deliver-bench bench-gate all\n")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var sc bench.Scale
	switch *scale {
	case "full":
		sc = bench.FullScale()
	case "quick":
		sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	targets := flag.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{
			"table1", "table2", "table3",
			"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
			"fig7", "fig8", "fig9", "fig10", "fig11",
			"ablation-mpi", "ablation-multidev", "profile", "check", "latency-tails",
			"reliability", "collectives",
		}
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		os.Exit(2)
	}
	for _, target := range targets {
		start := time.Now()
		var text string
		var err error
		var extra map[string][]byte // side artifacts, written next to the .txt
		switch target {
		case "collectives":
			text, extra, err = runCollectives(sc, *scale, *format == "csv")
		case "msgrate-bench":
			text, extra, err = runMsgRateBench(sc, *scale)
		case "rendezvous-bench":
			text, extra, err = runRendezvousBench(sc, *scale)
		case "latency-bench":
			text, extra, err = runLatencyBench(sc, *scale)
		case "serve":
			text, extra, err = runServeBench(sc, *scale)
		case "inline":
			text, extra, err = runInlineBench(sc, *scale)
		case "fabric-bench":
			text, extra, err = runDatapathBench(sc, *scale, "BENCH_fabric.json", bench.FabricBench)
		case "deliver-bench":
			text, extra, err = runDatapathBench(sc, *scale, "BENCH_deliver.json", bench.DeliverBench)
		case "bench-gate":
			text, err = runBenchGate(sc, *scale)
		default:
			text, err = run(target, sc, *format == "csv")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", target, err)
			os.Exit(1)
		}
		text = provenance(*scale) + text
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", target, time.Since(start).Seconds(), text)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*out, target+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			for name, data := range extra {
				if err := os.WriteFile(filepath.Join(*out, name), data, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
}

// runCollectives runs the flat-vs-tree collectives sweep; alongside the text
// figure it emits BENCH_collectives.json, the machine-readable perf record
// (op, impl, nodes, ns/op, allocs/op, commit).
func runCollectives(sc bench.Scale, scaleName string, csv bool) (string, map[string][]byte, error) {
	text, rep, err := bench.CollectivesText(sc, scaleName, csv)
	if err != nil {
		return "", nil, err
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return text, map[string][]byte{"BENCH_collectives.json": js}, nil
}

// runMsgRateBench measures the gated message-rate rows and emits
// BENCH_msgrate.json (the committed baseline bench-gate compares against).
func runMsgRateBench(sc bench.Scale, scaleName string) (string, map[string][]byte, error) {
	rep, err := bench.MsgRateBench(sc, scaleName)
	if err != nil {
		return "", nil, err
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{"BENCH_msgrate.json": js}, nil
}

// runRendezvousBench measures the large-message rendezvous bandwidth sweep
// (size × rails × chunk size vs the single-blob baseline) and emits
// BENCH_rendezvous.json. Fails if the striping claims don't hold.
func runRendezvousBench(sc bench.Scale, scaleName string) (string, map[string][]byte, error) {
	rep, err := bench.RendezvousBench(sc, scaleName)
	if err != nil {
		if rep == nil {
			return "", nil, err
		}
		return "", nil, fmt.Errorf("%w\n%s", err, rep.Text())
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{"BENCH_rendezvous.json": js}, nil
}

// runLatencyBench measures the latency trajectory rows and emits
// BENCH_latency.json.
func runLatencyBench(sc bench.Scale, scaleName string) (string, map[string][]byte, error) {
	rep, err := bench.LatencyBench(sc, scaleName)
	if err != nil {
		return "", nil, err
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{"BENCH_latency.json": js}, nil
}

// runServeBench drives the serving-tier load mixes (cache on/off, Zipf vs
// uniform, admission) and emits BENCH_serve.json. Fails if the cache
// speedup or admission claims don't hold.
func runServeBench(sc bench.Scale, scaleName string) (string, map[string][]byte, error) {
	rep, err := bench.ServeBench(sc, scaleName)
	if err != nil {
		if rep == nil {
			return "", nil, err
		}
		return "", nil, fmt.Errorf("%w\n%s", err, rep.Text())
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{"BENCH_serve.json": js}, nil
}

// serveZipfBaseline reads the committed serving-tier artifact and extracts
// the Zipf capacity row the inline serve claim compares against. Missing
// artifact degrades to 0 (claim skipped) rather than failing the run.
func serveZipfBaseline() float64 {
	data, err := os.ReadFile(serveGateArtifact)
	if err != nil {
		return 0
	}
	committed, err := bench.ParseServeReport(data)
	if err != nil {
		return 0
	}
	return bench.ServeZipfBaseline(committed)
}

// runInlineBench A/Bs the run-to-completion inline lane against spawn-always
// delivery on the 64 B aggregated message-rate workload, measures the
// serving-tier Zipf capacity with the lane on, and emits BENCH_inline.json.
// Fails if the inline speedup or serve-capacity claims don't hold.
func runInlineBench(sc bench.Scale, scaleName string) (string, map[string][]byte, error) {
	rep, err := bench.InlineBench(sc, scaleName, serveZipfBaseline())
	if err != nil {
		if rep == nil {
			return "", nil, err
		}
		return "", nil, fmt.Errorf("%w\n%s", err, rep.Text())
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{"BENCH_inline.json": js}, nil
}

// runDatapathBench measures one datapath artifact (fabric or receiver) and
// emits it under the given artifact name. Fails if the flatness/zero-alloc
// claims don't hold.
func runDatapathBench(sc bench.Scale, scaleName, artifact string, f func(bench.Scale, string) (*bench.DatapathReport, error)) (string, map[string][]byte, error) {
	rep, err := f(sc, scaleName)
	if err != nil {
		if rep == nil {
			return "", nil, err
		}
		return "", nil, fmt.Errorf("%w\n%s", err, rep.Text())
	}
	js, err := rep.JSON()
	if err != nil {
		return "", nil, err
	}
	return rep.Text(), map[string][]byte{artifact: js}, nil
}

// Committed baselines bench-gate checks against.
const (
	benchGateArtifact      = "results/BENCH_msgrate.json"
	rendezvousGateArtifact = "results/BENCH_rendezvous.json"
	serveGateArtifact      = "results/BENCH_serve.json"
	latencyGateArtifact    = "results/BENCH_latency.json"
	inlineGateArtifact     = "results/BENCH_inline.json"
)

// runBenchGate re-measures the gated rows (message rate, rendezvous
// bandwidth, latency, serving tier) and compares them against the committed
// artifacts, failing on throughput/ns-per-op/allocs regressions, on broken
// striping claims, and on broken serve cache/admission claims.
func runBenchGate(sc bench.Scale, scaleName string) (string, error) {
	data, err := os.ReadFile(benchGateArtifact)
	if err != nil {
		return "", fmt.Errorf("bench-gate: %w (run `make bench-msgrate` and commit the artifact)", err)
	}
	committed, err := bench.ParseMsgRateReport(data)
	if err != nil {
		return "", err
	}
	fresh, err := bench.MsgRateBench(sc, scaleName)
	if err != nil {
		return "", err
	}
	text, err := bench.MsgRateGate(fresh, committed)
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, text)
	}

	rdata, err := os.ReadFile(rendezvousGateArtifact)
	if err != nil {
		return "", fmt.Errorf("bench-gate: %w (run `make bench-rendezvous` and commit the artifact)", err)
	}
	rcommitted, err := bench.ParseRendezvousReport(rdata)
	if err != nil {
		return "", err
	}
	rfresh, err := bench.RendezvousBench(sc, scaleName)
	if err != nil && rfresh == nil {
		return "", err
	}
	rtext, err := bench.RendezvousGate(rfresh, rcommitted)
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, rtext)
	}

	ldata, err := os.ReadFile(latencyGateArtifact)
	if err != nil {
		return "", fmt.Errorf("bench-gate: %w (run `make bench-latency` and commit the artifact)", err)
	}
	lcommitted, err := bench.ParseLatencyReport(ldata)
	if err != nil {
		return "", err
	}
	lfresh, err := bench.LatencyBench(sc, scaleName)
	if err != nil {
		return "", err
	}
	ltext, err := bench.LatencyGate(lfresh, lcommitted)
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, ltext)
	}

	sdata, err := os.ReadFile(serveGateArtifact)
	if err != nil {
		return "", fmt.Errorf("bench-gate: %w (run `make bench-serve` and commit the artifact)", err)
	}
	scommitted, err := bench.ParseServeReport(sdata)
	if err != nil {
		return "", err
	}
	sfresh, err := bench.ServeBench(sc, scaleName)
	if err != nil && sfresh == nil {
		return "", err
	}
	stext, err := bench.ServeGate(sfresh, scommitted)
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, stext)
	}

	idata, err := os.ReadFile(inlineGateArtifact)
	if err != nil {
		return "", fmt.Errorf("bench-gate: %w (run `make bench-inline` and commit the artifact)", err)
	}
	icommitted, err := bench.ParseInlineReport(idata)
	if err != nil {
		return "", err
	}
	ifresh, err := bench.InlineBench(sc, scaleName, bench.ServeZipfBaseline(scommitted))
	if err != nil && ifresh == nil {
		return "", err
	}
	itext, err := bench.InlineGate(ifresh, icommitted, bench.ServeZipfBaseline(scommitted))
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, itext)
	}
	return text + "\n" + rtext + "\n" + ltext + "\n" + stext + "\n" + itext, nil
}

// run executes one target at the given scale.
func run(target string, sc bench.Scale, csv bool) (string, error) {
	figure := func(f func(bench.Scale) (*stats.Figure, error)) (string, error) {
		fig, err := f(sc)
		if err != nil {
			return "", err
		}
		if csv {
			return fig.RenderCSV(), nil
		}
		return fig.Render(), nil
	}
	switch target {
	case "table1":
		return bench.Table1Text(), nil
	case "table2":
		return bench.TableSystemText(bench.Expanse), nil
	case "table3":
		return bench.TableSystemText(bench.Rostam), nil
	case "fig1":
		return figure(bench.Fig1)
	case "fig2":
		return figure(bench.Fig2)
	case "fig3":
		return figure(bench.Fig3)
	case "fig4":
		return figure(bench.Fig4)
	case "fig5":
		return figure(bench.Fig5)
	case "fig6":
		return figure(bench.Fig6)
	case "fig7":
		return figure(bench.Fig7)
	case "fig8":
		return figure(bench.Fig8)
	case "fig9":
		return figure(bench.Fig9)
	case "fig10":
		return figure(bench.Fig10)
	case "fig11":
		return figure(bench.Fig11)
	case "ablation-mpi":
		return figure(bench.AblationMPI)
	case "ablation-multidev":
		return figure(bench.AblationMultiDevice)
	case "profile":
		return bench.ProfileText(sc)
	case "check":
		return bench.ClaimsText(sc)
	case "latency-tails":
		return figure(bench.LatencyTails)
	case "reliability":
		return bench.ReliabilityText(sc)
	default:
		return "", fmt.Errorf("unknown target %q", target)
	}
}
