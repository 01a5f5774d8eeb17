package octotiger

import (
	"encoding/binary"
	"fmt"
	"math"
)

// momentCount is the number of multipole coefficients exchanged per leaf
// (order-3 expansion, as in Octo-Tiger's FMM).
const momentCount = 20

// leafState is the simulation state of one leaf, resident on its owner
// locality. Phase discipline (global barriers between step phases) replaces
// per-leaf locking: committed fields are read-only during exchanges, and the
// kernel writes only the potential scratch array.
type leafState struct {
	fields    [][]float64 // committed hydro fields, each SubgridSize^3
	potential []float64   // kernel scratch, SubgridSize^3
	moments   [momentCount]float64
}

// newLeafState deterministically initializes a leaf's subgrid from its
// Morton key, so runs are reproducible across parcelports and partitions.
func newLeafState(p Params, lf *Leaf) *leafState {
	s := p.SubgridSize
	n := s * s * s
	st := &leafState{potential: make([]float64, n)}
	st.fields = make([][]float64, p.Fields)
	for k := range st.fields {
		st.fields[k] = make([]float64, n)
		for i := range st.fields[k] {
			h := splitmix64(lf.Morton ^ uint64(k)<<48 ^ uint64(i)<<16 ^ p.Seed)
			st.fields[k][i] = float64(h%100000) / 100000.0
		}
	}
	return st
}

// mass returns the conserved quantity (sum of field 0).
func (st *leafState) mass() float64 {
	var m float64
	for _, v := range st.fields[0] {
		m += v
	}
	return m
}

// momentWeights tabulates computeMoments' weights for an s³ subgrid: row m
// holds math.Mod(float64(i)*w, 2.0) with w = 1 + m/4 for every cell i. The
// weights depend only on the cell index, so an App builds the table once
// instead of re-evaluating fmod momentCount·s³ times per leaf and step.
func momentWeights(s int) []float64 {
	n := s * s * s
	tab := make([]float64, momentCount*n)
	for m := 0; m < momentCount; m++ {
		w := 1.0 + float64(m)*0.25
		row := tab[m*n : (m+1)*n]
		for i := range row {
			row[i] = math.Mod(float64(i)*w, 2.0)
		}
	}
	return tab
}

// computeMoments builds the multipole coefficients from field 0: a cheap
// polynomial reduction standing in for the real multipole expansion, one dot
// product per coefficient against its row of momentWeights.
func (st *leafState) computeMoments(weights []float64) {
	f0 := st.fields[0]
	n := len(f0)
	for m := range st.moments {
		row := weights[m*n : (m+1)*n]
		var acc float64
		for i, v := range f0 {
			acc += v * row[i]
		}
		st.moments[m] = acc
	}
}

// faceIndices iterates the subgrid indices of face f (0..5 = -X,+X,-Y,+Y,
// -Z,+Z) in a fixed deterministic order, calling fn with each linear index.
func faceIndices(s int, f int, fn func(idx int)) {
	fixed := 0
	if f&1 == 1 {
		fixed = s - 1
	}
	switch f / 2 {
	case 0: // X faces: index = x + s*(y + s*z)
		for z := 0; z < s; z++ {
			for y := 0; y < s; y++ {
				fn(fixed + s*(y+s*z))
			}
		}
	case 1: // Y faces
		for z := 0; z < s; z++ {
			for x := 0; x < s; x++ {
				fn(x + s*(fixed+s*z))
			}
		}
	default: // Z faces
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				fn(x + s*(y+s*fixed))
			}
		}
	}
}

// extractBoundary serializes the committed values of face f across all
// fields: the hydro boundary payload (Fields × SubgridSize² float64s).
func (st *leafState) extractBoundary(p Params, f int) []byte {
	s := p.SubgridSize
	out := make([]byte, 0, p.Fields*s*s*8)
	for k := 0; k < p.Fields; k++ {
		faceIndices(s, f, func(idx int) {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.fields[k][idx]))
		})
	}
	return out
}

// encodeMoments serializes the multipole coefficients (the small message of
// each exchange).
func (st *leafState) encodeMoments() []byte {
	out := make([]byte, 0, momentCount*8)
	for _, m := range st.moments {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m))
	}
	return out
}

// f64At reads the i-th little-endian float64 of a packed payload.
func f64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

// applyBoundary accumulates one neighbour's ot_boundary reply — its face
// payload and its moments, read in place — into the potential: the
// FMM-flavoured interaction kernel. face is this leaf's face index toward the
// neighbour. A reply of the wrong shape is rejected before anything is
// applied.
func (st *leafState) applyBoundary(p Params, face int, reply [][]byte) error {
	s := p.SubgridSize
	if len(reply) != 2 {
		return fmt.Errorf("boundary reply has %d blobs, want 2", len(reply))
	}
	boundary, moments := reply[0], reply[1]
	if want := p.Fields * s * s * 8; len(boundary) != want {
		return fmt.Errorf("boundary payload is %d bytes, want %d", len(boundary), want)
	}
	if len(moments) != momentCount*8 {
		return fmt.Errorf("moments payload is %d bytes, want %d", len(moments), momentCount*8)
	}
	// Near-field: boundary values push on this leaf's touching face.
	for k := 0; k < p.Fields; k++ {
		j := k * s * s
		faceIndices(s, face^1, func(idx int) { // our touching face is opposite
			st.potential[idx] += 0.1 * f64At(boundary, j) / float64(k+1)
			j++
		})
	}
	// Far-field: the neighbour's multipole moments contribute a smooth term.
	var far float64
	for m := 0; m < momentCount; m++ {
		far += f64At(moments, m) / float64((m+1)*(m+2))
	}
	far /= float64(len(st.potential))
	for i := range st.potential {
		st.potential[i] += 1e-6 * far
	}
	return nil
}

// selfInteraction runs the local part of the kernel (a small stencil over
// the committed field), the compute that overlaps communication in the real
// application.
func (st *leafState) selfInteraction(p Params) {
	s := p.SubgridSize
	n := s * s * s
	f0 := st.fields[0]
	for i := 0; i < n; i++ {
		acc := -6 * f0[i]
		if i >= 1 {
			acc += f0[i-1]
		}
		if i+1 < n {
			acc += f0[i+1]
		}
		if i >= s {
			acc += f0[i-s]
		}
		if i+s < n {
			acc += f0[i+s]
		}
		if i >= s*s {
			acc += f0[i-s*s]
		}
		if i+s*s < n {
			acc += f0[i+s*s]
		}
		st.potential[i] = 0.01 * acc
	}
}

// commit folds the potential back into the committed fields in a
// mass-conserving way (the update removes its own mean), then clears the
// scratch.
func (st *leafState) commit() {
	n := float64(len(st.potential))
	var mean float64
	for _, v := range st.potential {
		mean += v
	}
	mean /= n
	for i, v := range st.potential {
		st.fields[0][i] += 0.05 * (v - mean)
		st.potential[i] = 0
	}
}
