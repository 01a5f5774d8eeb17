package bench

import (
	"fmt"
	"strings"

	"hpxgo/internal/parcelport"
	"hpxgo/internal/stats"
)

// Repeat runs f n times and summarizes the results.
func Repeat(n int, f func() (float64, error)) (stats.Summary, error) {
	if n <= 0 {
		n = 1
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v, err := f()
		if err != nil {
			return stats.Summary{}, err
		}
		xs = append(xs, v)
	}
	return stats.Summarize(xs), nil
}

// expanseRate is the achieved message rate of one run on the Expanse
// profile (its worker count and a 2-node fabric).
func expanseRate(cfg string, p MsgRateParams) (float64, error) {
	p.Workers, p.Fabric = Expanse.WorkersPerLocality, Expanse.Fabric(2)
	res, err := MessageRate(cfg, p)
	return res.MsgRate, err
}

// expanseOcto is one Octo-Tiger run at the scale's Expanse settings.
func expanseOcto(cfg string, sc Scale, nodes int) (float64, error) {
	return OctoTiger(cfg, OctoParams{
		Platform: Expanse, Nodes: nodes, Level: sc.OctoLevelExp, Steps: sc.OctoSteps,
		Subgrid: sc.OctoSubgrid, Fields: sc.OctoFields,
	})
}

// fig1Configs are the four configurations of Fig 1 / Fig 4.
func fig1Configs() []string {
	return []string{"lci_psr_cq_pin", "lci_psr_cq_pin_i", "mpi", "mpi_i"}
}

// lciImmediateVariants are the eight LCI "_i" configurations of Fig 2 / Fig 5.
func lciImmediateVariants() []string {
	return []string{
		"lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
		"lci_psr_sy_pin_i", "lci_psr_sy_mt_i",
		"lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
		"lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
	}
}

// allConfigs are the eleven configurations of Fig 3 / Fig 6 / Figs 7-9.
func allConfigs() []string {
	var out []string
	for _, c := range parcelport.Table1() {
		out = append(out, c.String())
	}
	return out
}

// msgRateSweep measures one configuration across attempted injection rates.
func msgRateSweep(ppName string, size, batch, total int, rates []float64, reps int) (*stats.Series, error) {
	s := &stats.Series{Label: ppName}
	for _, rate := range rates {
		var injSum float64
		ys := make([]float64, 0, reps)
		for r := 0; r < max(1, reps); r++ {
			res, err := MessageRate(ppName, MsgRateParams{
				Size: size, Batch: batch, Total: total, Rate: rate,
				Workers: Expanse.WorkersPerLocality, Fabric: Expanse.Fabric(2),
			})
			if err != nil {
				return nil, fmt.Errorf("%s rate %.0f: %w", ppName, rate, err)
			}
			injSum += res.AchievedInj
			ys = append(ys, res.MsgRate)
		}
		sum := stats.Summarize(ys)
		// Plot in K/s like the paper.
		s.Add(injSum/float64(len(ys))/1e3, sum.Mean/1e3, sum.Stddev/1e3)
	}
	return s, nil
}

// msgRateFigure builds a Figs 1/2/4/5-style figure.
func msgRateFigure(title string, configs []string, size, batch, total int, rates []float64, reps int) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  title,
		XLabel: "Achieved Injection Rate (K/s)",
		YLabel: "Achieved Message Rate (K/s)",
	}
	for _, cfg := range configs {
		s, err := msgRateSweep(cfg, size, batch, total, rates, reps)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig1 — achieved message rate of 8B messages, MPI vs LCI with/without the
// send-immediate optimization.
func Fig1(sc Scale) (*stats.Figure, error) {
	return msgRateFigure("Fig 1: Message Rate (8B) - MPI vs LCI",
		fig1Configs(), 8, sc.Batch8B, sc.Total8B, sc.Rates8B, sc.Reps)
}

// Fig2 — achieved message rate of 8B messages across LCI variants.
func Fig2(sc Scale) (*stats.Figure, error) {
	return msgRateFigure("Fig 2: Message Rate (8B) - LCI configurations",
		lciImmediateVariants(), 8, sc.Batch8B, sc.Total8B, sc.Rates8B, sc.Reps)
}

// peakFigure builds a Fig 3/6-style highest-rate-per-config chart.
func peakFigure(title string, size, batch, total int, rates []float64, reps int) (*stats.Figure, error) {
	fig := &stats.Figure{Title: title, XLabel: "config (one series each)", YLabel: "Peak Message Rate (K/s)"}
	for _, cfg := range allConfigs() {
		s, err := msgRateSweep(cfg, size, batch, total, rates, reps)
		if err != nil {
			return nil, err
		}
		peak := &stats.Series{Label: cfg}
		peak.Add(0, s.PeakY(), 0)
		fig.Series = append(fig.Series, peak)
	}
	return fig, nil
}

// Fig3 — highest achieved 8B message rate across all injection rates.
func Fig3(sc Scale) (*stats.Figure, error) {
	return peakFigure("Fig 3: Peak Message Rate (8B), all configurations",
		8, sc.Batch8B, sc.Total8B, sc.Rates8B, sc.Reps)
}

// Fig4 — achieved message rate of 16KiB messages, MPI vs LCI.
func Fig4(sc Scale) (*stats.Figure, error) {
	return msgRateFigure("Fig 4: Message Rate (16KiB) - MPI vs LCI",
		fig1Configs(), 16*1024, sc.Batch16K, sc.Total16K, sc.Rates16K, sc.Reps)
}

// Fig5 — achieved message rate of 16KiB messages across LCI variants.
func Fig5(sc Scale) (*stats.Figure, error) {
	return msgRateFigure("Fig 5: Message Rate (16KiB) - LCI configurations",
		lciImmediateVariants(), 16*1024, sc.Batch16K, sc.Total16K, sc.Rates16K, sc.Reps)
}

// Fig6 — highest achieved 16KiB message rate across all injection rates.
func Fig6(sc Scale) (*stats.Figure, error) {
	return peakFigure("Fig 6: Peak Message Rate (16KiB), all configurations",
		16*1024, sc.Batch16K, sc.Total16K, sc.Rates16K, sc.Reps)
}

// latencyFigure builds Figs 7-9: one series per configuration, one point per
// x, where params maps x to the point's (size, window).
func latencyFigure(title, xLabel string, sc Scale, xs []int, params func(x int) (size, window int)) (*stats.Figure, error) {
	fig := &stats.Figure{Title: title, XLabel: xLabel, YLabel: "Latency (us)"}
	for _, cfg := range allConfigs() {
		s := &stats.Series{Label: cfg}
		for _, x := range xs {
			size, window := params(x)
			sum, err := Repeat(sc.Reps, func() (float64, error) {
				return Latency(cfg, LatencyParams{
					Size: size, Window: window, Steps: sc.LatencySteps,
					Workers: Expanse.WorkersPerLocality, Fabric: Expanse.Fabric(2),
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s size %d window %d: %w", cfg, size, window, err)
			}
			s.Add(float64(x), sum.Mean, sum.Stddev)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig7 — single-message ping-pong latency vs message size (window 1).
func Fig7(sc Scale) (*stats.Figure, error) {
	return latencyFigure("Fig 7: Latency vs Message Size", "Message Size (byte)", sc, sc.Sizes7,
		func(size int) (int, int) { return size, 1 })
}

// latencyWindowFigure builds Figs 8-9.
func latencyWindowFigure(title string, size int, sc Scale) (*stats.Figure, error) {
	return latencyFigure(title, "Window Size", sc, sc.Windows,
		func(w int) (int, int) { return size, w })
}

// Fig8 — 8B message latency vs window size.
func Fig8(sc Scale) (*stats.Figure, error) {
	return latencyWindowFigure("Fig 8: Latency vs Window (8B)", 8, sc)
}

// Fig9 — 16KiB message latency vs window size.
func Fig9(sc Scale) (*stats.Figure, error) {
	return latencyWindowFigure("Fig 9: Latency vs Window (16KiB)", 16*1024, sc)
}

// octoFigure builds Figs 10-11: absolute steps/s for mpi, mpi_i and lci plus
// the lci speedup series.
func octoFigure(title string, plat Platform, nodes []int, level, steps, subgrid, fields, reps int) (*stats.Figure, error) {
	fig := &stats.Figure{Title: title, XLabel: "Node Count", YLabel: "Steps per Second"}
	results := map[string]map[int]float64{}
	for _, cfg := range []string{"mpi", "mpi_i", "lci"} {
		s := &stats.Series{Label: cfg}
		results[cfg] = map[int]float64{}
		for _, n := range nodes {
			sum, err := Repeat(reps, func() (float64, error) {
				return OctoTiger(cfg, OctoParams{
					Platform: plat, Nodes: n, Level: level, Steps: steps,
					Subgrid: subgrid, Fields: fields,
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s x%d: %w", cfg, n, err)
			}
			s.Add(float64(n), sum.Mean, sum.Stddev)
			results[cfg][n] = sum.Mean
		}
		fig.Series = append(fig.Series, s)
	}
	for _, base := range []string{"mpi", "mpi_i"} {
		sp := &stats.Series{Label: "lci / " + base}
		for _, n := range nodes {
			if results[base][n] > 0 {
				sp.Add(float64(n), results["lci"][n]/results[base][n], 0)
			}
		}
		fig.Series = append(fig.Series, sp)
	}
	return fig, nil
}

// Fig10 — Octo-Tiger strong scaling on the Expanse profile.
func Fig10(sc Scale) (*stats.Figure, error) {
	return octoFigure("Fig 10: Octo-Tiger on SDSC Expanse (profile)", Expanse,
		sc.OctoNodes, sc.OctoLevelExp, sc.OctoSteps, sc.OctoSubgrid, sc.OctoFields, sc.Reps)
}

// Fig11 — Octo-Tiger strong scaling on the Rostam profile.
func Fig11(sc Scale) (*stats.Figure, error) {
	return octoFigure("Fig 11: Octo-Tiger on Rostam (profile)", Rostam,
		sc.OctoNodesR, sc.OctoLevelRost, sc.OctoSteps, sc.OctoSubgrid, sc.OctoFields, sc.Reps)
}

// AblationMPI compares the improved MPI parcelport with the §3.1 original
// (fixed 512B stack headers that can only piggyback the non-zero-copy
// chunk, plus the tag-release protocol with its lock-protected tag
// provider). The paper attributes ~20% of application performance to these
// two changes, dominated by the header-allocation fix. The communication-
// bound message-rate workload isolates the parcelport cost; an Octo-Tiger
// point shows the application-level effect.
func AblationMPI(sc Scale) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Ablation: original vs improved MPI parcelport",
		XLabel: "workload (1=8B rate K/s, 2=16KiB rate K/s, 3=Octo-Tiger steps/s)",
		YLabel: "higher is better",
	}
	for _, cfg := range []string{"mpi", "mpi_orig", "mpi_i", "mpi_orig_i"} {
		cfg := cfg
		s := &stats.Series{Label: cfg}
		kRate := func(p MsgRateParams) func() (float64, error) {
			return func() (float64, error) {
				rate, err := expanseRate(cfg, p)
				return rate / 1e3, err
			}
		}
		for i, workload := range []func() (float64, error){
			kRate(MsgRateParams{Size: 8, Batch: sc.Batch8B, Total: sc.Total8B}),
			kRate(MsgRateParams{Size: 16 * 1024, Batch: sc.Batch16K, Total: sc.Total16K}),
			func() (float64, error) {
				return expanseOcto(cfg, sc, sc.OctoNodesR[min(1, len(sc.OctoNodesR)-1)])
			},
		} {
			sum, err := Repeat(sc.Reps, workload)
			if err != nil {
				return nil, fmt.Errorf("%s workload %d: %w", cfg, i+1, err)
			}
			s.Add(float64(i+1), sum.Mean, sum.Stddev)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// LatencyTails measures the one-way latency distribution (mean/p50/p99) of
// the baseline LCI and MPI parcelports at 8B and 16KiB, window 1 and 16 —
// the jitter view modern communication benchmarks add beside the paper's
// means.
func LatencyTails(sc Scale) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Latency tails: mean/p50/p99 one-way latency",
		XLabel: "series encodes config+size+window; x: 0=mean 1=p50 2=p99",
		YLabel: "Latency (us)",
	}
	for _, cfg := range []string{"lci", "mpi_i"} {
		for _, size := range []int{8, 16 * 1024} {
			for _, w := range []int{1, 16} {
				d, err := LatencyDistribution(cfg, LatencyParams{
					Size: size, Window: w, Steps: sc.LatencySteps,
					Workers: Expanse.WorkersPerLocality, Fabric: Expanse.Fabric(2),
				})
				if err != nil {
					return nil, fmt.Errorf("%s size %d w %d: %w", cfg, size, w, err)
				}
				s := fig.AddSeries(fmt.Sprintf("%s_%dB_w%d", cfg, size, w))
				s.Add(0, d.Mean, 0)
				s.Add(1, d.P50, 0)
				s.Add(2, d.P99, 0)
			}
		}
	}
	return fig, nil
}

// AblationMultiDevice measures the §7.2 future-work configuration: the
// baseline LCI parcelport with 1, 2 and 4 replicated devices (each its own
// network context and progress thread), under the 8B unlimited-injection
// message-rate workload where the paper expects resource replication to
// raise message rates.
func AblationMultiDevice(sc Scale) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Ablation: replicated LCI devices (8B message rate)",
		XLabel: "Devices per locality",
		YLabel: "Achieved Message Rate (K/s)",
	}
	s := fig.AddSeries("lci_psr_cq_pin_i")
	for _, devs := range []int{1, 2, 4} {
		sum, err := Repeat(sc.Reps, func() (float64, error) {
			return expanseRate("lci", MsgRateParams{Size: 8, Batch: sc.Batch8B, Total: sc.Total8B, LCIDevices: devs})
		})
		if err != nil {
			return nil, fmt.Errorf("devices=%d: %w", devs, err)
		}
		s.Add(float64(devs), sum.Mean/1e3, sum.Stddev/1e3)
	}
	return fig, nil
}

// Table1Text renders the Table 1 abbreviation key.
func Table1Text() string {
	var b strings.Builder
	b.WriteString("Table 1: Abbreviations for configurations.\n")
	rows := [][2]string{
		{"mpi", "Use the MPI parcelport"},
		{"lci", "Use the LCI parcelport"},
		{"sr", "Use the sendrecv protocol"},
		{"psr", "Use the putsendrecv protocol"},
		{"sy", "Use synchronizer as the completion type"},
		{"cq", "Use completion queue as the completion type"},
		{"pin", "Use a pinned dedicated progress thread"},
		{"mt", "Use all worker threads to make progress"},
		{"i", "Enable the send immediate optimization"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s %s\n", r[0], r[1])
	}
	b.WriteString("Evaluated configurations: " + strings.Join(allConfigs(), ", ") + "\n")
	return b.String()
}

// TableSystemText renders Table 2 or Table 3 plus the simulation profile
// derived from it.
func TableSystemText(p Platform) string {
	var b strings.Builder
	fmt.Fprintf(&b, "System configuration (%s):\n", p.Name)
	rows := [][2]string{
		{"CPU", p.CPU},
		{"Memory", p.Memory},
		{"Storage", p.Storage},
		{"NIC", p.NIC},
		{"Interconnect", p.Interconnect},
		{"Max Nodes/Job", fmt.Sprintf("%d", p.MaxNodes)},
		{"OS", p.OS},
		{"Compiler", p.Compiler},
		{"Software", p.Software},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %s\n", r[0], r[1])
	}
	fmt.Fprintf(&b, "Simulation profile: %d workers/locality, %dns latency, %.0f Gb/s, Octo-Tiger level %d\n",
		p.WorkersPerLocality, p.LatencyNs, p.GbitsPerSec, p.OctoLevel)
	return b.String()
}
