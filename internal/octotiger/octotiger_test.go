package octotiger

import (
	"math"
	"testing"
	"testing/quick"

	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
)

func TestMortonRoundTripProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1FFFFF
		y &= 0x1FFFFF
		z &= 0x1FFFFF
		gx, gy, gz := MortonDecode(MortonEncode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonLocality(t *testing.T) {
	// Morton keys of (0,0,0) and (1,0,0) must be closer than (0,0,0) and
	// (0,0,4): the space-filling property the partitioner relies on.
	near := MortonEncode(1, 0, 0) - MortonEncode(0, 0, 0)
	far := MortonEncode(0, 0, 4) - MortonEncode(0, 0, 0)
	if near >= far {
		t.Fatalf("Morton locality violated: near=%d far=%d", near, far)
	}
}

func TestBuildTreeFullRefinement(t *testing.T) {
	// RefineFraction 0 refines only to MinLevel: a complete octree.
	tr, err := BuildTree(Params{MaxLevel: 3, MinLevel: 3, RefineFraction: -1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 8*8*8 {
		t.Fatalf("full level-3 tree has %d leaves, want 512", len(tr.Leaves))
	}
	for i := 1; i < len(tr.Leaves); i++ {
		if tr.Leaves[i].Morton <= tr.Leaves[i-1].Morton {
			t.Fatal("leaves not in strict Morton order")
		}
	}
}

func TestBuildTreeAdaptive(t *testing.T) {
	tr, err := BuildTree(Params{MaxLevel: 4, MinLevel: 2, RefineFraction: 0.5, Seed: 42}, 4)
	if err != nil {
		t.Fatal(err)
	}
	minL, maxL := 99, 0
	for _, lf := range tr.Leaves {
		if lf.Level < minL {
			minL = lf.Level
		}
		if lf.Level > maxL {
			maxL = lf.Level
		}
	}
	if minL < 2 || maxL > 4 {
		t.Fatalf("leaf levels outside [2,4]: [%d,%d]", minL, maxL)
	}
	if maxL == minL {
		t.Fatal("tree is not adaptive (all leaves at one level)")
	}
	// Determinism: same seed, same tree.
	tr2, _ := BuildTree(Params{MaxLevel: 4, MinLevel: 2, RefineFraction: 0.5, Seed: 42}, 4)
	if len(tr2.Leaves) != len(tr.Leaves) {
		t.Fatal("tree build is not deterministic")
	}
}

func TestPartitionBalancedContiguous(t *testing.T) {
	const locs = 4
	tr, err := BuildTree(Params{MaxLevel: 3, MinLevel: 3}, locs)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, locs)
	prevOwner := 0
	for _, lf := range tr.Leaves {
		counts[lf.Owner]++
		if lf.Owner < prevOwner {
			t.Fatal("partition is not contiguous in Morton order")
		}
		prevOwner = lf.Owner
	}
	for l, c := range counts {
		if c < len(tr.Leaves)/locs-1 || c > len(tr.Leaves)/locs+1 {
			t.Fatalf("locality %d owns %d of %d leaves (unbalanced)", l, c, len(tr.Leaves))
		}
	}
}

func TestNeighborsSameLevelSymmetric(t *testing.T) {
	tr, err := BuildTree(Params{MaxLevel: 2, MinLevel: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lf := range tr.Leaves {
		for f, nb := range lf.Neighbors {
			if nb < 0 {
				// Must actually be at the domain boundary.
				max := uint32(1<<uint(lf.Level)) - 1
				c := [3]uint32{lf.X, lf.Y, lf.Z}[f/2]
				if !(f%2 == 0 && c == 0 || f%2 == 1 && c == max) {
					t.Fatalf("leaf %d face %d has no neighbour but is interior", lf.Index, f)
				}
				continue
			}
			back := tr.Leaves[nb].Neighbors[f^1]
			if back != lf.Index {
				t.Fatalf("asymmetric adjacency: %d -f%d-> %d -f%d-> %d", lf.Index, f, nb, f^1, back)
			}
		}
	}
}

func TestNeighborsAdaptiveResolve(t *testing.T) {
	tr, err := BuildTree(Params{MaxLevel: 4, MinLevel: 1, RefineFraction: 0.4, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every interior face must resolve to some leaf.
	for _, lf := range tr.Leaves {
		max := uint32(1 << uint(lf.Level))
		coords := [3]uint32{lf.X, lf.Y, lf.Z}
		for f, nb := range lf.Neighbors {
			interior := !(f%2 == 0 && coords[f/2] == 0 || f%2 == 1 && coords[f/2] == max-1)
			if interior && nb < 0 {
				t.Fatalf("interior face unresolved: leaf %d (level %d) face %d", lf.Index, lf.Level, f)
			}
			if nb >= 0 && tr.Leaves[nb] == nil {
				t.Fatal("dangling neighbour index")
			}
		}
	}
}

func TestRemoteFacesPositive(t *testing.T) {
	tr, err := BuildTree(Params{MaxLevel: 3, MinLevel: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RemoteFaces() == 0 {
		t.Fatal("a 4-way partition must cut some faces")
	}
	tr1, _ := BuildTree(Params{MaxLevel: 3, MinLevel: 3}, 1)
	if tr1.RemoteFaces() != 0 {
		t.Fatal("single locality cannot have remote faces")
	}
}

func TestFaceIndicesCountAndBounds(t *testing.T) {
	const s = 5
	for f := 0; f < 6; f++ {
		count := 0
		faceIndices(s, f, func(idx int) {
			if idx < 0 || idx >= s*s*s {
				t.Fatalf("face %d index %d out of range", f, idx)
			}
			count++
		})
		if count != s*s {
			t.Fatalf("face %d yielded %d indices, want %d", f, count, s*s)
		}
	}
}

func TestBoundaryRoundTrip(t *testing.T) {
	p := Params{SubgridSize: 4, Fields: 2}
	p.fillDefaults()
	lf := &Leaf{Morton: 123}
	st := newLeafState(p, lf)
	payload := make([]byte, 8*p.Fields*p.SubgridSize*p.SubgridSize)
	st.extractBoundary(faceTable(p.SubgridSize)[3], payload)
	if len(payload) != 8*p.Fields*p.SubgridSize*p.SubgridSize {
		t.Fatalf("boundary has %d bytes", len(payload))
	}
	// First value must equal the first face cell of field 0.
	var first float64
	got := false
	faceIndices(p.SubgridSize, 3, func(idx int) {
		if !got {
			first = st.fields[0][idx]
			got = true
		}
	})
	if f64At(payload, 0) != first {
		t.Fatal("boundary extraction order mismatch")
	}
}

func TestCommitConservesMass(t *testing.T) {
	p := Params{SubgridSize: 6, Fields: 1}
	p.fillDefaults()
	st := newLeafState(p, &Leaf{Morton: 5})
	before := st.mass()
	st.selfInteraction(p)
	for i := range st.potential {
		st.potential[i] += float64(i%7) * 0.01 // arbitrary extra potential
	}
	st.commit()
	after := st.mass()
	if math.Abs(after-before) > 1e-9*math.Abs(before) {
		t.Fatalf("mass changed: %g -> %g", before, after)
	}
}

// runApp builds a runtime + app with small parameters and runs n steps.
func runApp(t *testing.T, pp string, localities, steps int) *App {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Parcelport:         pp,
		Fabric:             fabric.Config{LatencyNs: 300, GbitsPerSec: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(rt, Params{MaxLevel: 2, MinLevel: 2, SubgridSize: 4, Fields: 2, StopStep: steps})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestAppRunsLCI(t *testing.T) {
	app := runApp(t, "lci", 2, 2)
	if app.Steps() != 2 {
		t.Fatalf("Steps = %d", app.Steps())
	}
	if rel := math.Abs(app.TotalMass()-app.InitialMass()) / app.InitialMass(); rel > 1e-9 {
		t.Fatalf("mass drifted by %g", rel)
	}
}

func TestAppRunsMPI(t *testing.T) {
	app := runApp(t, "mpi_i", 2, 2)
	if app.Steps() != 2 {
		t.Fatalf("Steps = %d", app.Steps())
	}
}

func TestChecksumIndependentOfParcelportAndPartition(t *testing.T) {
	// The physics must not depend on the communication backend or the number
	// of localities: same checksum everywhere.
	ref := runApp(t, "lci", 1, 2).PotentialChecksum()
	for _, tc := range []struct {
		pp   string
		locs int
	}{{"lci", 2}, {"mpi_i", 2}, {"lci_sr_sy_mt_i", 3}} {
		got := runApp(t, tc.pp, tc.locs, 2).PotentialChecksum()
		if math.Abs(got-ref) > 1e-6*math.Abs(ref) {
			t.Fatalf("%s x%d: checksum %g, want %g", tc.pp, tc.locs, got, ref)
		}
	}
}

// TestPotentialChecksumGolden pins PotentialChecksum's bits after 30 steps
// at the benchmark's parameters (octotiger_4n) and at runApp's: a change to
// the kernel, the exchange or the step's phase order that moves one
// floating-point operation fails here, on either parcelport.
func TestPotentialChecksumGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		locs int
		p    Params
		want uint64
	}{
		{"benchmark", 4, Params{MaxLevel: 3, MinLevel: 2, SubgridSize: 6, Fields: 4, Seed: 1, StopStep: 30}, 0x40cc70f9d5006aeb},
		{"runApp", 2, Params{MaxLevel: 2, MinLevel: 2, SubgridSize: 4, Fields: 2, StopStep: 30}, 0x408fd8114e100503},
	} {
		for _, pp := range []string{"lci_i", "mpi_i"} {
			t.Run(tc.name+"/"+pp, func(t *testing.T) {
				rt, err := core.NewRuntime(core.Config{Localities: tc.locs, WorkersPerLocality: 2, Parcelport: pp})
				if err != nil {
					t.Fatal(err)
				}
				app, err := New(rt, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Start(); err != nil {
					t.Fatal(err)
				}
				defer rt.Shutdown()
				if _, err := app.Run(); err != nil {
					t.Fatal(err)
				}
				if got := math.Float64bits(app.PotentialChecksum()); got != tc.want {
					t.Fatalf("checksum bits %#x after %d steps, want %#x", got, app.Steps(), tc.want)
				}
			})
		}
	}
}

func TestProlongConservesMass(t *testing.T) {
	p := Params{SubgridSize: 6, Fields: 2}
	p.fillDefaults()
	parent := newLeafState(p, &Leaf{Morton: 77})
	parentMass := parent.mass()
	children := prolong(p, parent)
	if len(children) != 8 {
		t.Fatalf("prolong produced %d children", len(children))
	}
	var childMass float64
	for _, c := range children {
		childMass += c.mass()
	}
	if math.Abs(childMass-parentMass) > 1e-9*math.Abs(parentMass) {
		t.Fatalf("prolongation lost mass: %g -> %g", parentMass, childMass)
	}
}

func TestRegridRefinesAndConserves(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{
		Localities: 2, WorkersPerLocality: 2, Parcelport: "lci",
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(rt, Params{MaxLevel: 3, MinLevel: 2, SubgridSize: 4, Fields: 1, StopStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	before := len(app.Tree().Leaves)
	massBefore := app.TotalMass()
	// Threshold 0: every leaf below MaxLevel refines.
	refined, err := app.Regrid(0)
	if err != nil {
		t.Fatal(err)
	}
	if refined == 0 {
		t.Fatal("nothing refined at zero threshold")
	}
	after := len(app.Tree().Leaves)
	if after != before+7*refined {
		t.Fatalf("leaf count %d -> %d with %d refinements", before, after, refined)
	}
	if rel := math.Abs(app.TotalMass()-massBefore) / massBefore; rel > 1e-9 {
		t.Fatalf("regrid changed mass by %g", rel)
	}
	// Partition must remain contiguous and neighbours consistent.
	prevOwner := 0
	for _, lf := range app.Tree().Leaves {
		if lf.Owner < prevOwner {
			t.Fatal("partition not contiguous after regrid")
		}
		prevOwner = lf.Owner
		for f, nb := range lf.Neighbors {
			if nb >= 0 && app.Tree().Leaves[nb].Level == lf.Level {
				if back := app.Tree().Leaves[nb].Neighbors[f^1]; back != lf.Index {
					t.Fatalf("asymmetric adjacency after regrid: %d vs %d", lf.Index, back)
				}
			}
		}
	}
	// And the app must still step correctly on the new tree.
	if err := app.Step(); err != nil {
		t.Fatalf("step after regrid: %v", err)
	}
	// Very high threshold: no refinement.
	if n, err := app.Regrid(1e18); err != nil || n != 0 {
		t.Fatalf("high-threshold regrid: %d, %v", n, err)
	}
}

func TestRunWithRegridEnabled(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "mpi_i"})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(rt, Params{
		MaxLevel: 3, MinLevel: 2, SubgridSize: 4, Fields: 1,
		StopStep: 3, RegridEvery: 1, RegridThreshold: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	before := len(app.Tree().Leaves)
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app.Tree().Leaves) <= before {
		t.Fatal("regridding never grew the tree")
	}
	if rel := math.Abs(app.TotalMass()-app.InitialMass()) / app.InitialMass(); rel > 1e-9 {
		t.Fatalf("mass drifted by %g across regrids", rel)
	}
}
