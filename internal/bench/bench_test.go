package bench

import (
	"strings"
	"testing"

	"hpxgo/internal/core"
)

func TestMessageRateBasic(t *testing.T) {
	res, err := MessageRate("lci", MsgRateParams{Size: 8, Batch: 50, Total: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgRate <= 0 || res.AchievedInj <= 0 {
		t.Fatalf("non-positive rates: %+v", res)
	}
}

func TestMessageRatePacedBelowUnlimited(t *testing.T) {
	// A paced run must achieve roughly the attempted injection rate when it
	// is far below capacity.
	res, err := MessageRate("lci", MsgRateParams{Size: 8, Batch: 10, Total: 500, Rate: 20e3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedInj > 30e3 {
		t.Fatalf("paced injection ran too fast: %.0f msg/s", res.AchievedInj)
	}
	if res.MsgRate <= 0 {
		t.Fatal("no messages received")
	}
}

func TestMessageRateMPI(t *testing.T) {
	res, err := MessageRate("mpi_i", MsgRateParams{Size: 8, Batch: 50, Total: 500, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgRate <= 0 {
		t.Fatalf("mpi_i rate: %+v", res)
	}
}

func TestMessageRate16K(t *testing.T) {
	res, err := MessageRate("lci", MsgRateParams{Size: 16 * 1024, Batch: 10, Total: 100, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgRate <= 0 {
		t.Fatalf("16KiB rate: %+v", res)
	}
}

func TestMessageRateValidation(t *testing.T) {
	if _, err := MessageRate("lci", MsgRateParams{Size: 8, Batch: 0, Total: 100}); err == nil {
		t.Fatal("zero batch should fail")
	}
	if _, err := MessageRate("lci", MsgRateParams{Size: 8, Batch: 200, Total: 100}); err == nil {
		t.Fatal("total below batch should fail")
	}
	if _, err := MessageRate("nonsense", MsgRateParams{Size: 8, Batch: 10, Total: 100}); err == nil {
		t.Fatal("unknown parcelport should fail")
	}
}

// TestReliabilityOverhead checks the invariants behind the reliability
// comparison, not its timing (`experiments reliability` prints the rates; a
// wall-clock ratio on 5000 messages is noise on a shared host): with the ARQ
// on and no faults the run completes on the lossless fast path — every
// message arrives and nothing is retransmitted; under the 1% fault profile
// the ARQ does retransmit and delivery is still exactly-once.
func TestReliabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-message runs in -short mode")
	}
	const total = 5000
	_, rel, lossy := reliabilityModes(MsgRateParams{Size: 8, Batch: 50, Total: total, Workers: 2})
	run := func(p MsgRateParams) (retransmits, delivered uint64) {
		t.Helper()
		p.Inspect = func(rt *core.Runtime) {
			for i := 0; i < rt.Localities(); i++ {
				retransmits += rt.Network().Device(i).Stats().Retransmits
			}
			delivered = rt.Locality(1).ParcelsExecuted()
		}
		if _, err := MessageRate("lci", p); err != nil { // returns once all `total` arrived
			t.Fatal(err)
		}
		return retransmits, delivered
	}
	if retx, got := run(rel); retx != 0 || got != total {
		t.Fatalf("fault-free ARQ: %d retransmits (want 0, the lossless fast path), %d parcels delivered (want %d)", retx, got, total)
	}
	if retx, got := run(lossy); retx == 0 || got != total {
		t.Fatalf("1%%-lossy ARQ: %d retransmits (want > 0), %d parcels delivered (want exactly %d)", retx, got, total)
	}
}

func TestLatencyBasic(t *testing.T) {
	us, err := Latency("lci", LatencyParams{Size: 8, Window: 1, Steps: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if us <= 0 {
		t.Fatalf("latency %.2f us", us)
	}
}

func TestLatencyWindowed(t *testing.T) {
	us, err := Latency("mpi_i", LatencyParams{Size: 1024, Window: 4, Steps: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if us <= 0 {
		t.Fatalf("latency %.2f us", us)
	}
}

func TestLatencyOddStepsRounded(t *testing.T) {
	if _, err := Latency("lci", LatencyParams{Size: 8, Window: 1, Steps: 9, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestOctoTigerRuns(t *testing.T) {
	sps, err := OctoTiger("lci", OctoParams{Platform: Expanse, Nodes: 2, Level: 2, Steps: 1, Subgrid: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sps <= 0 {
		t.Fatalf("steps/s = %f", sps)
	}
}

func TestRepeat(t *testing.T) {
	n := 0
	sum, err := Repeat(4, func() (float64, error) { n++; return float64(n), nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 4 || sum.Mean != 2.5 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestTableTexts(t *testing.T) {
	t1 := Table1Text()
	for _, needle := range []string{"mpi", "psr", "send immediate", "lci_sr_sy_mt_i"} {
		if !strings.Contains(t1, needle) {
			t.Fatalf("Table 1 text missing %q", needle)
		}
	}
	t2 := TableSystemText(Expanse)
	if !strings.Contains(t2, "EPYC") || !strings.Contains(t2, "HDR InfiniBand") {
		t.Fatal("Table 2 text missing hardware rows")
	}
	t3 := TableSystemText(Rostam)
	if !strings.Contains(t3, "Skylake") || !strings.Contains(t3, "FDR InfiniBand") {
		t.Fatal("Table 3 text missing hardware rows")
	}
}

func TestConfigSetsMatchPaper(t *testing.T) {
	if len(allConfigs()) != 11 {
		t.Fatalf("allConfigs has %d entries, want 11", len(allConfigs()))
	}
	if len(lciImmediateVariants()) != 8 {
		t.Fatalf("lci variants: %d, want 8", len(lciImmediateVariants()))
	}
	if len(fig1Configs()) != 4 {
		t.Fatalf("fig1 configs: %d, want 4", len(fig1Configs()))
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{FullScale(), QuickScale()} {
		if sc.Total8B < sc.Batch8B || sc.Total16K < sc.Batch16K {
			t.Fatal("totals below batch size")
		}
		if len(sc.Rates8B) == 0 || sc.Rates8B[len(sc.Rates8B)-1] != 0 {
			t.Fatal("rate sweeps must end with the unlimited point")
		}
		if sc.Reps < 1 {
			t.Fatal("reps must be at least 1")
		}
	}
}

func TestFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	sc := QuickScale()
	sc.Total8B = 1000
	sc.Rates8B = []float64{0}
	fig, err := Fig1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("Fig1 has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Fatalf("series %s empty or non-positive", s.Label)
		}
	}
	if !strings.Contains(fig.Render(), "Fig 1") {
		t.Fatal("render missing title")
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("octo sweep in -short mode")
	}
	sc := QuickScale()
	sc.OctoNodes = []int{2}
	fig, err := Fig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	// mpi, mpi_i, lci + two speedup series.
	if len(fig.Series) != 5 {
		t.Fatalf("Fig10 has %d series", len(fig.Series))
	}
}

func TestLatencyDistribution(t *testing.T) {
	d, err := LatencyDistribution("lci", LatencyParams{Size: 8, Window: 2, Steps: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean <= 0 || d.P50 <= 0 || d.P99 < d.P50 || d.Max < d.P99 {
		t.Fatalf("implausible distribution %+v", d)
	}
}

func TestFig7And8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	sc := QuickScale()
	sc.Sizes7 = []int{8}
	sc.Windows = []int{1}
	sc.LatencySteps = 20
	fig7, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig7.Series) != 11 {
		t.Fatalf("Fig7 has %d series, want 11", len(fig7.Series))
	}
	fig8, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig8.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Fatalf("Fig8 series %s bad", s.Label)
		}
	}
}

func TestFig3PeaksQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("peak sweep in -short mode")
	}
	sc := QuickScale()
	sc.Total8B = 600
	sc.Rates8B = []float64{0}
	fig, err := Fig3(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 11 {
		t.Fatalf("Fig3 has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Points[0].Y <= 0 {
			t.Fatalf("peak for %s is zero", s.Label)
		}
	}
}

func TestProfileTextQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run in -short mode")
	}
	sc := QuickScale()
	sc.Total16K = 100
	text, err := ProfileText(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"MPI_Test", "progress-lock", "message-rate ratio"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("profile text missing %q:\n%s", needle, text)
		}
	}
}

func TestAblationMultiDeviceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	sc := QuickScale()
	sc.Total8B = 500
	fig, err := AblationMultiDevice(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 3 {
		t.Fatalf("multidev ablation shape wrong: %+v", fig.Series)
	}
}

func TestPlatformFabric(t *testing.T) {
	f := Rostam.Fabric(4)
	if f.Nodes != 4 || f.GbitsPerSec != 56 || f.Rails != 2 {
		t.Fatalf("Rostam fabric %+v", f)
	}
}

func TestFullScaleSweepLists(t *testing.T) {
	sc := FullScale()
	if r8 := sc.Rates8B; r8[0] != 100e3 || r8[len(r8)-1] != 0 {
		t.Fatalf("8B rates %v", r8)
	}
	if r16 := sc.Rates16K; r16[0] != 10e3 || r16[len(r16)-1] != 0 {
		t.Fatalf("16K rates %v", r16)
	}
	if len(sc.Sizes7) < 5 || len(sc.Windows) < 5 {
		t.Fatal("sweep lists too short")
	}
}
