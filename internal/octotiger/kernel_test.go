package octotiger

import (
	"bytes"
	"encoding/binary"
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

// extractBoundaryClosure and applyBoundaryClosure are the face kernels as
// they were before the face table: faceIndices with a closure per cell, an
// appended payload. The references the table-driven kernels must match.
func extractBoundaryClosure(st *leafState, s, f int) []byte {
	var out []byte
	for k := range st.fields {
		faceIndices(s, f, func(idx int) {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.fields[k][idx]))
		})
	}
	return out
}

func applyBoundaryClosure(st *leafState, s, face int, boundary, moments []byte) {
	for k := range st.fields {
		j := k * s * s
		faceIndices(s, face^1, func(idx int) {
			st.potential[idx] += 0.1 * f64At(boundary, j) / float64(k+1)
			j++
		})
	}
	var far float64
	for m := 0; m < momentCount; m++ {
		far += f64At(moments, m) / float64((m+1)*(m+2))
	}
	far /= float64(len(st.potential))
	for i := range st.potential {
		st.potential[i] += 1e-6 * far
	}
}

// TestFaceKernelsMatchClosureReference: Phase A's prepared replies (the
// table-driven extract and the moment encoding) and the table-driven apply
// reproduce the closure kernels bit for bit, for every face.
func TestFaceKernelsMatchClosureReference(t *testing.T) {
	for _, s := range []int{4, 6, 8} {
		p := Params{SubgridSize: s, Fields: 3}
		p.fillDefaults()
		faces := faceTable(s)
		src := newLeafState(p, &Leaf{Morton: uint64(s)})
		src.computeMoments(momentWeights(s))
		src.prepareReplies(&faces)
		var moments []byte
		for _, m := range src.moments {
			moments = binary.LittleEndian.AppendUint64(moments, math.Float64bits(m))
		}
		got := newLeafState(p, &Leaf{Morton: 100 + uint64(s)})
		want := newLeafState(p, &Leaf{Morton: 100 + uint64(s)})
		got.selfInteraction(p)
		want.selfInteraction(p)
		for f := 0; f < 6; f++ {
			boundary := extractBoundaryClosure(src, s, f)
			if !bytes.Equal(src.replies[f][0], boundary) {
				t.Fatalf("s=%d face %d: boundary payload differs from the closure reference", s, f)
			}
			if !bytes.Equal(src.replies[f][1], moments) {
				t.Fatalf("s=%d face %d: moments payload differs from the reference encoding", s, f)
			}
			// Apply the face on the opposite side, as a pull does.
			if err := got.applyBoundary(p, &faces, f^1, src.replies[f][:]); err != nil {
				t.Fatal(err)
			}
			applyBoundaryClosure(want, s, f^1, boundary, moments)
			for i := range want.potential {
				if math.Float64bits(got.potential[i]) != math.Float64bits(want.potential[i]) {
					t.Fatalf("s=%d face %d cell %d: potential %v, closure reference %v", s, f, i, got.potential[i], want.potential[i])
				}
			}
		}
	}
}

// TestBoundaryPullZeroAllocs: once Phase A has built a leaf's replies, the
// ot_boundary action hands them out without allocating, and a later Phase A
// rewrites them in place.
func TestBoundaryPullZeroAllocs(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{Localities: 2, WorkersPerLocality: 1, Parcelport: "lci_i"})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(rt, Params{MaxLevel: 2, MinLevel: 2, SubgridSize: 6, Fields: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	req := []byte{3, 0, 0, 0, 4}
	args := [][]byte{req}
	first := app.boundary(nil, args)
	if len(first) != 2 || len(first[0]) != 4*6*6*8 || len(first[1]) != momentCount*8 {
		t.Fatalf("reply shape %d blobs", len(first))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = app.boundary(nil, args) }); n != 0 {
		t.Fatalf("ot_boundary allocates %v times per pull", n)
	}
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	if again := app.boundary(nil, args); &again[0][0] != &first[0][0] || &again[1][0] != &first[1][0] {
		t.Fatal("Phase A reallocated a leaf's reply buffers")
	}
}

// TestApplyBoundaryRejectsMalformedReply: a reply of the wrong shape is an
// error, and nothing of it reaches the potential.
func TestApplyBoundaryRejectsMalformedReply(t *testing.T) {
	p := Params{SubgridSize: 4, Fields: 2}
	p.fillDefaults()
	faces := faceTable(p.SubgridSize)
	src := newLeafState(p, &Leaf{Morton: 11})
	src.prepareReplies(&faces)
	boundary, moments := src.replies[2][0], src.replies[2][1]
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
			err := st.applyBoundary(p, &faces, 3, tc.reply)
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
