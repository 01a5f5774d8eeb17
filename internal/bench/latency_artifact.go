package bench

import "fmt"

// Latency rows: the ping-pong latency distribution of the (size, window)
// points no BENCHMARK.json workload covers — windowed small messages and an
// eager-threshold-sized message, solo and windowed. Informational: no claim
// is made about them (the solo 8 B leg is `pingpong_8b` in benchmark/).

// latencyPoints enumerates the artifact rows.
func latencyPoints(sc Scale) []point[LatencyParams] {
	return []point[LatencyParams]{
		{"latency/lci_i/8B/w8", LatencyParams{Size: 8, Window: 8, Steps: sc.LatencySteps}},
		{"latency/lci_i/16KiB/w1", LatencyParams{Size: 16384, Window: 1, Steps: sc.LatencySteps}},
		{"latency/lci_i/16KiB/w8", LatencyParams{Size: 16384, Window: 8, Steps: sc.LatencySteps}},
	}
}

// measureLatency measures every row, best-of-reps by mean (the distribution
// columns come from the best rep, so one row is internally consistent).
func measureLatency(sc Scale) ([]Record, error) {
	// Best-of-N by mean: the minimum of a noisy distribution stabilizes as
	// N grows, and each rep costs ~25 ms at quick scale. Best-of-2 wandered
	// ~2.8x run to run on the 8B mean; best-of-5 stays within ~2.1x.
	reps := max(sc.Reps, 5)
	var recs []Record
	for _, pt := range latencyPoints(sc) {
		var best LatencyDist
		for r := 0; r < reps; r++ {
			d, err := LatencyDistribution("lci_i", pt.p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pt.op, err)
			}
			if best.Mean == 0 || d.Mean < best.Mean {
				best = d
			}
		}
		recs = append(recs, row(pt.op, "mean_us", best.Mean, "p50_us", best.P50, "p99_us", best.P99, "max_us", best.Max))
	}
	return recs, nil
}
