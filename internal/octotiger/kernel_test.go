package octotiger

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hpxgo/internal/core"
)

// computeMomentsFmod is the untabulated moment loop, re-evaluating every
// weight with math.Mod: the reference the tabulated kernel must match.
func computeMomentsFmod(f0 []float64) (out [momentCount]float64) {
	for m := range out {
		var acc float64
		w := 1.0 + float64(m)*0.25
		for i, v := range f0 {
			acc += v * math.Mod(float64(i)*w, 2.0)
		}
		out[m] = acc
	}
	return out
}

// TestComputeMomentsMatchesFmodReference: the tabulated weights and the
// dot-product loop reproduce the fmod loop bit for bit.
func TestComputeMomentsMatchesFmodReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []int{4, 6, 8} {
		weights := momentWeights(s)
		for trial := 0; trial < 5; trial++ {
			st := &leafState{fields: [][]float64{make([]float64, s*s*s)}}
			for i := range st.fields[0] {
				st.fields[0][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			st.computeMoments(weights)
			want := computeMomentsFmod(st.fields[0])
			for m := range want {
				if math.Float64bits(st.moments[m]) != math.Float64bits(want[m]) {
					t.Fatalf("s=%d trial %d moment %d: %v, fmod reference %v", s, trial, m, st.moments[m], want[m])
				}
			}
		}
	}
}

// TestApplyBoundaryRejectsMalformedReply: a reply of the wrong shape is an
// error, and nothing of it reaches the potential.
func TestApplyBoundaryRejectsMalformedReply(t *testing.T) {
	p := Params{SubgridSize: 4, Fields: 2}
	p.fillDefaults()
	src := newLeafState(p, &Leaf{Morton: 11})
	boundary, moments := src.extractBoundary(p, 2), src.encodeMoments()
	for _, tc := range []struct {
		name  string
		reply [][]byte
		ok    bool
	}{
		{"valid", [][]byte{boundary, moments}, true},
		{"nil reply", nil, false},
		{"one blob", [][]byte{boundary}, false},
		{"three blobs", [][]byte{boundary, moments, moments}, false},
		{"nil boundary", [][]byte{nil, moments}, false},
		{"truncated boundary", [][]byte{boundary[:len(boundary)-8], moments}, false},
		{"boundary off by one byte", [][]byte{boundary[:len(boundary)-1], moments}, false},
		{"oversized boundary", [][]byte{append(slices.Clone(boundary), 0, 0, 0, 0, 0, 0, 0, 0), moments}, false},
		{"nil moments", [][]byte{boundary, nil}, false},
		{"truncated moments", [][]byte{boundary, moments[:len(moments)-8]}, false},
		{"oversized moments", [][]byte{boundary, append(slices.Clone(moments), 0, 0, 0, 0, 0, 0, 0, 0)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newLeafState(p, &Leaf{Morton: 12})
			err := st.applyBoundary(p, 3, tc.reply)
			if tc.ok != (err == nil) {
				t.Fatalf("applyBoundary: %v, want ok=%v", err, tc.ok)
			}
			touched := slices.ContainsFunc(st.potential, func(v float64) bool { return v != 0 })
			if touched != tc.ok {
				t.Fatalf("potential touched = %v, want %v", touched, tc.ok)
			}
		})
	}
}

// TestOwnedLeavesCached: OwnedLeaves answers from the partition computed when
// the tree was built — the same lists a scan of the owners gives, before and
// after a regrid, without allocating.
func TestOwnedLeavesCached(t *testing.T) {
	const locs = 3
	scan := func(tr *Tree, loc int) []int {
		var out []int
		for _, lf := range tr.Leaves {
			if lf.Owner == loc {
				out = append(out, lf.Index)
			}
		}
		return out
	}
	check := func(tr *Tree) {
		t.Helper()
		for l := 0; l < locs; l++ {
			if got, want := tr.OwnedLeaves(l), scan(tr, l); !slices.Equal(got, want) {
				t.Fatalf("OwnedLeaves(%d) = %v, want %v", l, got, want)
			}
		}
		if tr.OwnedLeaves(-1) != nil || tr.OwnedLeaves(locs) != nil {
			t.Fatal("out-of-range locality owns leaves")
		}
		if n := testing.AllocsPerRun(100, func() { _ = tr.OwnedLeaves(1) }); n != 0 {
			t.Fatalf("OwnedLeaves allocates %v times per call", n)
		}
	}

	rt, err := core.NewRuntime(core.Config{Localities: locs, WorkersPerLocality: 1, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(rt, Params{MaxLevel: 3, MinLevel: 2, SubgridSize: 4, Fields: 1})
	if err != nil {
		t.Fatal(err)
	}
	check(app.Tree())
	if n, err := app.Regrid(0); err != nil || n == 0 {
		t.Fatalf("regrid: %d refined, %v", n, err)
	}
	check(app.Tree())
}
