// Package hpxgo's root benchmark suite maps one testing.B benchmark to each
// table and figure of the paper. Each benchmark runs a scaled-down
// representative measurement of its experiment and reports the figure's
// metric (message rate, one-way latency, or steps/s) via b.ReportMetric.
// The full multi-series sweeps that regenerate entire figures live in
// cmd/experiments.
package hpxgo

import (
	"testing"

	"hpxgo/internal/bench"
	"hpxgo/internal/parcelport"
)

// --- Tables ---

func BenchmarkTable1Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(parcelport.Table1()) != 11 {
			b.Fatal("Table 1 must list 11 configurations")
		}
		_ = bench.Table1Text()
	}
}

func BenchmarkTable2ExpanseProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.TableSystemText(bench.Expanse)
	}
}

func BenchmarkTable3RostamProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.TableSystemText(bench.Rostam)
	}
}

// --- Microbenchmarks: message rate (Figs 1-6) ---

// msgRate runs one unlimited-injection message-rate measurement and reports
// the achieved message rate.
func msgRate(b *testing.B, cfg string, size, batch, total int) {
	b.Helper()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := bench.MessageRate(cfg, bench.MsgRateParams{
			Size: size, Batch: batch, Total: total,
			Workers: bench.Expanse.WorkersPerLocality,
			Fabric:  bench.Expanse.Fabric(2),
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.MsgRate
	}
	b.ReportMetric(rate, "msgs/s")
	b.ReportMetric(0, "ns/op") // wall time is not the metric here
}

func BenchmarkFig1MessageRate8B_MPIvsLCI_lci(b *testing.B) {
	msgRate(b, "lci_psr_cq_pin_i", 8, 100, 5000)
}

func BenchmarkFig1MessageRate8B_MPIvsLCI_mpi(b *testing.B) {
	msgRate(b, "mpi_i", 8, 100, 5000)
}

func BenchmarkFig2MessageRate8B_LCIVariants_mt(b *testing.B) {
	msgRate(b, "lci_psr_cq_mt_i", 8, 100, 5000)
}

func BenchmarkFig3PeakRate8B_sr_sy(b *testing.B) {
	msgRate(b, "lci_sr_sy_mt_i", 8, 100, 5000)
}

func BenchmarkFig4MessageRate16K_MPIvsLCI_lci(b *testing.B) {
	msgRate(b, "lci_psr_cq_pin_i", 16*1024, 10, 500)
}

func BenchmarkFig4MessageRate16K_MPIvsLCI_mpi(b *testing.B) {
	msgRate(b, "mpi_i", 16*1024, 10, 500)
}

func BenchmarkFig5MessageRate16K_LCIVariants_sy(b *testing.B) {
	msgRate(b, "lci_psr_sy_pin_i", 16*1024, 10, 500)
}

func BenchmarkFig6PeakRate16K_aggregated(b *testing.B) {
	msgRate(b, "lci_psr_cq_pin", 16*1024, 10, 500)
}

// --- Microbenchmarks: latency (Figs 7-9) ---

// latency runs one ping-pong measurement and reports one-way latency.
func latency(b *testing.B, cfg string, size, window int) {
	b.Helper()
	var us float64
	for i := 0; i < b.N; i++ {
		v, err := bench.Latency(cfg, bench.LatencyParams{
			Size: size, Window: window, Steps: 100,
			Workers: bench.Expanse.WorkersPerLocality,
			Fabric:  bench.Expanse.Fabric(2),
		})
		if err != nil {
			b.Fatal(err)
		}
		us = v
	}
	b.ReportMetric(us, "us/msg")
}

func BenchmarkFig7LatencyVsSize_8B_lci(b *testing.B)    { latency(b, "lci_psr_cq_pin_i", 8, 1) }
func BenchmarkFig7LatencyVsSize_64K_lci(b *testing.B)   { latency(b, "lci_psr_cq_pin_i", 64*1024, 1) }
func BenchmarkFig7LatencyVsSize_64K_mpi(b *testing.B)   { latency(b, "mpi_i", 64*1024, 1) }
func BenchmarkFig8LatencyWindow8B_w16_lci(b *testing.B) { latency(b, "lci_psr_cq_pin_i", 8, 16) }
func BenchmarkFig8LatencyWindow8B_w16_mpi(b *testing.B) { latency(b, "mpi_i", 8, 16) }
func BenchmarkFig9LatencyWindow16K_w16_lci(b *testing.B) {
	latency(b, "lci_psr_cq_pin_i", 16*1024, 16)
}
func BenchmarkFig9LatencyWindow16K_w16_mpi(b *testing.B) { latency(b, "mpi_i", 16*1024, 16) }

// --- Application benchmark (Figs 10-11, §3.1 ablation) ---

// octo runs one Octo-Tiger strong-scaling point and reports steps/s.
func octo(b *testing.B, cfg string, plat bench.Platform, nodes, level int) {
	b.Helper()
	var sps float64
	for i := 0; i < b.N; i++ {
		v, err := bench.OctoTiger(cfg, bench.OctoParams{
			Platform: plat, Nodes: nodes, Level: level, Steps: 1, Subgrid: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		sps = v
	}
	b.ReportMetric(sps, "steps/s")
}

func BenchmarkFig10OctoExpanse_lci(b *testing.B)  { octo(b, "lci", bench.Expanse, 4, 2) }
func BenchmarkFig10OctoExpanse_mpi(b *testing.B)  { octo(b, "mpi", bench.Expanse, 4, 2) }
func BenchmarkFig10OctoExpanse_mpiI(b *testing.B) { octo(b, "mpi_i", bench.Expanse, 4, 2) }
func BenchmarkFig11OctoRostam_lci(b *testing.B)   { octo(b, "lci", bench.Rostam, 4, 2) }
func BenchmarkFig11OctoRostam_mpi(b *testing.B)   { octo(b, "mpi", bench.Rostam, 4, 2) }

func BenchmarkAblationMPIOriginal(b *testing.B) { octo(b, "mpi_orig", bench.Expanse, 2, 2) }
func BenchmarkAblationMPIImproved(b *testing.B) { octo(b, "mpi", bench.Expanse, 2, 2) }

// §7.2 future work: replicated LCI devices.
func benchMultiDev(b *testing.B, devs int) {
	b.Helper()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := bench.MessageRate("lci", bench.MsgRateParams{
			Size: 8, Batch: 100, Total: 5000,
			Workers:    bench.Expanse.WorkersPerLocality,
			Fabric:     bench.Expanse.Fabric(2),
			LCIDevices: devs,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.MsgRate
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkAblationMultiDev1(b *testing.B) { benchMultiDev(b, 1) }
func BenchmarkAblationMultiDev2(b *testing.B) { benchMultiDev(b, 2) }

// AMR regridding: Octo-Tiger with the tree re-adapting each step.
func BenchmarkOctoRegrid(b *testing.B) {
	var sps float64
	for i := 0; i < b.N; i++ {
		v, err := bench.OctoTiger("lci", bench.OctoParams{
			Platform: bench.Expanse, Nodes: 2, Level: 3, Steps: 2, Subgrid: 4,
			RegridEvery: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sps = v
	}
	b.ReportMetric(sps, "steps/s")
}
