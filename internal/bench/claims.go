package bench

import (
	"fmt"
	"strings"
)

// PaperClaim is one qualitative statement from the paper's evaluation, checked
// against freshly measured numbers.
type PaperClaim struct {
	ID     string
	Text   string // the paper's statement
	Holds  bool
	Detail string // measured evidence
}

// sampler takes repeated measurements and keeps the first error, so the
// claims below read as arithmetic over measured means; after an error every
// further measurement is skipped.
type sampler struct {
	reps int
	err  error
}

// mean is the mean of reps runs of f, or 0 once a measurement has failed.
func (s *sampler) mean(f func() (float64, error)) float64 {
	if s.err != nil {
		return 0
	}
	sum, err := Repeat(s.reps, f)
	s.err = err
	return sum.Mean
}

// PaperClaims measures the paper's key qualitative claims at the given
// scale and reports which hold in this reproduction. It is the automated
// "did the shape reproduce?" checker behind `cmd/experiments check`.
func PaperClaims(sc Scale) ([]PaperClaim, error) {
	m := &sampler{reps: sc.Reps}
	rate := func(cfg string, size, batch, total int, inj float64) float64 {
		return m.mean(func() (float64, error) {
			return expanseRate(cfg, MsgRateParams{Size: size, Batch: batch, Total: total, Rate: inj})
		})
	}
	lat := func(cfg string, window int) float64 {
		return m.mean(func() (float64, error) {
			return Latency(cfg, LatencyParams{
				Size: 16 * 1024, Window: window, Steps: sc.LatencySteps,
				Workers: Expanse.WorkersPerLocality, Fabric: Expanse.Fabric(2),
			})
		})
	}
	octo := func(cfg string, nodes int) float64 {
		return m.mean(func() (float64, error) { return expanseOcto(cfg, sc, nodes) })
	}

	lci16 := rate("lci", 16*1024, sc.Batch16K, sc.Total16K, 0)
	mpi16 := rate("mpi_i", 16*1024, sc.Batch16K, sc.Total16K, 0)
	mpiLow := rate("mpi_i", 16*1024, sc.Batch16K, sc.Total16K, sc.Rates16K[0]*2)
	lci8 := rate("lci", 8, sc.Batch8B, sc.Total8B, 0)
	mpi8 := rate("mpi_i", 8, sc.Batch8B, sc.Total8B, 0)
	sr8 := rate("lci_sr_cq_pin_i", 8, sc.Batch8B, sc.Total8B, 0)

	bigW := sc.Windows[len(sc.Windows)-1]
	gapW1 := lat("mpi_i", 1) / lat("lci", 1)
	gapWN := lat("mpi_i", bigW) / lat("lci", bigW)

	// The §3.1 ablation runs at a node count where inter-locality
	// communication carries weight (2-node runs are compute-bound).
	ablNodes := sc.OctoNodes[min(1, len(sc.OctoNodes)-1)]
	impr, orig := octo("mpi", ablNodes), octo("mpi_orig", ablNodes)
	nodesSmall, nodesBig := sc.OctoNodes[0], sc.OctoNodes[len(sc.OctoNodes)-1]
	speedS := octo("lci", nodesSmall) / octo("mpi", nodesSmall)
	speedB := octo("lci", nodesBig) / octo("mpi", nodesBig)
	if m.err != nil {
		return nil, m.err
	}

	return []PaperClaim{
		{ // paper: up to 30x
			ID:     "rate-16k",
			Text:   "LCI parcelport achieves a higher 16KiB message rate than the MPI parcelport",
			Holds:  lci16 > mpi16,
			Detail: fmt.Sprintf("lci %.0f msg/s vs mpi_i %.0f msg/s (%.2fx)", lci16, mpi16, lci16/mpi16),
		},
		{ // paper Fig 4
			ID:     "mpi-decline",
			Text:   "MPI's achieved 16KiB rate declines under unlimited injection pressure",
			Holds:  mpi16 < mpiLow,
			Detail: fmt.Sprintf("paced %.0f msg/s vs unlimited %.0f msg/s", mpiLow, mpi16),
		},
		{ // paper Fig 3
			ID:     "rate-8b",
			Text:   "LCI parcelport achieves a higher 8B message rate than the MPI parcelport",
			Holds:  lci8 > mpi8,
			Detail: fmt.Sprintf("lci %.0f msg/s vs mpi_i %.0f msg/s (%.2fx)", lci8, mpi8, lci8/mpi8),
		},
		{ // one-sided put headers vs two-sided send/recv headers; paper: psr up to 3.5x sr
			ID:     "psr-vs-sr",
			Text:   "putsendrecv beats sendrecv for the 8B message rate",
			Holds:  lci8 > sr8,
			Detail: fmt.Sprintf("psr %.0f msg/s vs sr %.0f msg/s (%.2fx)", lci8, sr8, lci8/sr8),
		},
		{ // paper Figs 8-9: from mpi_i 2x better to 9.6x worse; the ratio
			// must move in LCI's favour from window 1 to the largest.
			ID:     "window-gap",
			Text:   "the MPI/LCI 16KiB latency ratio grows with the window size",
			Holds:  gapWN > gapW1,
			Detail: fmt.Sprintf("mpi_i/lci ratio %.2fx at w=1 vs %.2fx at w=%d", gapW1, gapWN, bigW),
		},
		{
			ID:     "mpi-ablation",
			Text:   "the improved MPI parcelport beats the original (§3.1, ~20% on Octo-Tiger)",
			Holds:  impr > orig,
			Detail: fmt.Sprintf("improved %.2f steps/s vs original %.2f steps/s (%.2fx)", impr, orig, impr/orig),
		},
		{ // paper Figs 10-11
			ID:     "octo-scaling",
			Text:   "LCI's Octo-Tiger speedup over MPI grows with node count",
			Holds:  speedB > speedS,
			Detail: fmt.Sprintf("lci/mpi %.3fx at %d nodes vs %.3fx at %d nodes", speedS, nodesSmall, speedB, nodesBig),
		},
	}, nil
}

// ClaimsText runs PaperClaims and renders a report.
func ClaimsText(sc Scale) (string, error) {
	claims, err := PaperClaims(sc)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	held := 0
	b.WriteString("Reproduction claim check (paper's qualitative statements vs this host):\n\n")
	for _, c := range claims {
		mark := "REPRODUCED"
		if !c.Holds {
			mark = "NOT REPRODUCED"
		} else {
			held++
		}
		fmt.Fprintf(&b, "[%-14s] %s: %s\n  measured: %s\n", mark, c.ID, c.Text, c.Detail)
	}
	fmt.Fprintf(&b, "\n%d of %d claims reproduced. See EXPERIMENTS.md for the per-figure\n", held, len(claims))
	b.WriteString("analysis, including which gaps are expected on a single-CPU host.\n")
	return b.String(), nil
}
