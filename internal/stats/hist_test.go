package stats

import "testing"

func TestHistBuckets(t *testing.T) {
	var h Hist
	if h.Total() != 0 {
		t.Fatal("empty histogram not empty")
	}
	for i := 0; i < 90; i++ {
		h.Observe(256)
	}
	for i := 0; i < 10; i++ {
		h.Observe(8192)
	}
	if got := h.Total(); got != 100 {
		t.Fatalf("Total = %d, want 100", got)
	}
	h.Reset()
	if h.Total() != 0 {
		t.Fatal("Reset left observations behind")
	}
	// Extremes stay in range.
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1 << 62)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(512) }); a != 0 {
		t.Fatalf("hist path allocates %.1f/op, want 0", a)
	}
}

// TestHistPercentileKnownDistributions checks the log2-bucket quantile
// estimate against the exact stats.Percentile on distributions whose shape
// exercises different bucket patterns. The estimate interpolates inside a
// power-of-two bucket, so it is guaranteed only to land within the true
// value's bucket: assert estimate ∈ [exact/2, exact*2] (plus absolute
// slack 1 around the tiny buckets), and tighter where the distribution
// makes the estimate exact.
func TestHistPercentileKnownDistributions(t *testing.T) {
	within := func(t *testing.T, name string, est, exact float64) {
		t.Helper()
		lo, hi := exact/2-1, exact*2+1
		if est < lo || est > hi {
			t.Fatalf("%s: estimate %.2f outside [%.2f, %.2f] (exact %.2f)", name, est, lo, hi, exact)
		}
	}
	t.Run("constant", func(t *testing.T) {
		var h Hist
		for i := 0; i < 1000; i++ {
			h.Observe(100) // bucket [64, 128)
		}
		for _, p := range []float64{1, 50, 99, 99.9} {
			est := h.Percentile(p)
			if est < 64 || est > 128 {
				t.Fatalf("p%v = %.2f escaped the [64,128) bucket", p, est)
			}
		}
	})
	t.Run("uniform", func(t *testing.T) {
		var h Hist
		var xs []float64
		for v := 1; v <= 4096; v++ {
			h.Observe(v)
			xs = append(xs, float64(v))
		}
		for _, p := range []float64{10, 50, 90, 99, 99.9} {
			within(t, "uniform", h.Percentile(p), Percentile(xs, p))
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 95% fast ops at ~8, 5% slow at ~8192: p50 must report the fast
		// mode, p99 the slow one.
		var h Hist
		var xs []float64
		for i := 0; i < 950; i++ {
			h.Observe(8)
			xs = append(xs, 8)
		}
		for i := 0; i < 50; i++ {
			h.Observe(8192)
			xs = append(xs, 8192)
		}
		within(t, "bimodal p50", h.Percentile(50), Percentile(xs, 50))
		within(t, "bimodal p99", h.Percentile(99), Percentile(xs, 99))
		if h.Percentile(50) >= 16 {
			t.Fatalf("p50 = %.1f left the fast mode", h.Percentile(50))
		}
		if h.Percentile(99) < 4096 {
			t.Fatalf("p99 = %.1f missed the slow mode", h.Percentile(99))
		}
	})
	t.Run("geometric", func(t *testing.T) {
		// One observation per power of two: every bucket holds exactly one,
		// so percentile rank maps directly onto bucket index.
		var h Hist
		var xs []float64
		for k := 0; k < 16; k++ {
			v := 1 << k
			h.Observe(v)
			xs = append(xs, float64(v))
		}
		for _, p := range []float64{25, 50, 75, 100} {
			within(t, "geometric", h.Percentile(p), Percentile(xs, p))
		}
	})
}

// TestHistPercentileEdges: empty histogram, clamped p, zero bucket, and
// allocation-freedom of the estimate (it may run on hot reporting paths).
func TestHistPercentileEdges(t *testing.T) {
	var h Hist
	if v := h.Percentile(99); v != 0 {
		t.Fatalf("empty Percentile = %v, want 0", v)
	}
	h.Observe(0)
	if v := h.Percentile(50); v < 0 || v > 1 {
		t.Fatalf("all-zero Percentile = %v, want within [0,1]", v)
	}
	h.Reset()
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if lo, hi := h.Percentile(-5), h.Percentile(250); lo > hi {
		t.Fatalf("clamped percentiles inverted: p(-5)=%v > p(250)=%v", lo, hi)
	}
	if a := testing.AllocsPerRun(100, func() { h.Percentile(99) }); a != 0 {
		t.Fatalf("Percentile allocates %.1f/op, want 0", a)
	}
}
