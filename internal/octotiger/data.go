package octotiger

import (
	"encoding/binary"
	"fmt"
	"math"
)

// momentCount is the number of multipole coefficients exchanged per leaf
// (order-3 expansion, as in Octo-Tiger's FMM). computeMoments takes them
// four at a time.
const momentCount = 20

// leafState is the simulation state of one leaf, resident on its owner
// locality. Phase discipline (global barriers between step phases) replaces
// per-leaf locking: committed fields are read-only during exchanges, and the
// kernel writes only the potential scratch array.
type leafState struct {
	fields    [][]float64 // committed hydro fields, each SubgridSize^3
	potential []float64   // kernel scratch, SubgridSize^3
	moments   [momentCount]float64

	// The ot_boundary reply, built by prepareReplies in Phase A and only
	// read in Phase B (DESIGN.md §16): replies[f] is the two blobs a pull
	// of face f returns, its face payload and momentBytes, the encoded
	// moments. Empty until the leaf's first Phase A; reused across steps.
	momentBytes [momentCount * 8]byte
	replies     [6][2][]byte
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
// product per coefficient against its row of momentWeights. Four
// coefficients share each pass over the cells: every coefficient still sums
// its products in cell order, so the result is bit-identical to one dot
// product at a time, but the four independent sums keep the FPU busy where
// one would wait out each add's latency.
func (st *leafState) computeMoments(weights []float64) {
	f0 := st.fields[0]
	n := len(f0)
	for m := 0; m < momentCount; m += 4 {
		r0 := weights[m*n:][:n]
		r1 := weights[(m+1)*n:][:n]
		r2 := weights[(m+2)*n:][:n]
		r3 := weights[(m+3)*n:][:n]
		var a0, a1, a2, a3 float64
		for i, v := range f0 {
			a0 += v * r0[i]
			a1 += v * r1[i]
			a2 += v * r2[i]
			a3 += v * r3[i]
		}
		st.moments[m], st.moments[m+1], st.moments[m+2], st.moments[m+3] = a0, a1, a2, a3
	}
}

// faceIndices iterates the subgrid indices of face f (0..5 = -X,+X,-Y,+Y,
// -Z,+Z) in a fixed deterministic order, calling fn with each linear index.
// Only faceTable calls it; the kernels loop over the table.
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

// faceTable lists the subgrid indices of each face of an s³ subgrid in
// faceIndices order. Like momentWeights it depends only on the subgrid size,
// so an App builds it once and the face kernels run plain loops over it.
func faceTable(s int) (tab [6][]int32) {
	for f := range tab {
		idx := make([]int32, 0, s*s)
		faceIndices(s, f, func(i int) { idx = append(idx, int32(i)) })
		tab[f] = idx
	}
	return tab
}

// extractBoundary writes the committed values of one face (its index list)
// across all fields into out: the hydro boundary payload, Fields × SubgridSize²
// little-endian float64s. out must hold exactly that many bytes.
func (st *leafState) extractBoundary(face []int32, out []byte) {
	j := 0
	for _, fk := range st.fields {
		for _, idx := range face {
			binary.LittleEndian.PutUint64(out[j:], math.Float64bits(fk[idx]))
			j += 8
		}
	}
}

// prepareReplies is the second half of Phase A: it encodes the leaf's fresh
// moments and extracts its six face payloads into the leaf's own buffers, so
// every ot_boundary pull of the step returns replies[face] without copying or
// allocating. The buffers are allocated at the leaf's first Phase A (a leaf
// created by Regrid included) and rewritten in place afterwards, which is
// safe because no pull is outstanding when Phase A starts.
func (st *leafState) prepareReplies(faces *[6][]int32) {
	if st.replies[0][0] == nil {
		n := len(st.fields) * len(faces[0]) * 8
		buf := make([]byte, 6*n)
		for f := range st.replies {
			st.replies[f] = [2][]byte{buf[f*n : (f+1)*n : (f+1)*n], st.momentBytes[:]}
		}
	}
	for m, v := range st.moments {
		binary.LittleEndian.PutUint64(st.momentBytes[m*8:], math.Float64bits(v))
	}
	for f := range st.replies {
		st.extractBoundary(faces[f], st.replies[f][0])
	}
}

// f64At reads the i-th little-endian float64 of a packed payload.
func f64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

// applyBoundary accumulates one neighbour's ot_boundary reply — its face
// payload and its moments, read in place — into the potential: the
// FMM-flavoured interaction kernel. face is this leaf's face index toward the
// neighbour and faces is the App's face table. A reply of the wrong shape is
// rejected before anything is applied.
func (st *leafState) applyBoundary(p Params, faces *[6][]int32, face int, reply [][]byte) error {
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
	touch := faces[face^1] // our touching face is opposite
	for k := 0; k < p.Fields; k++ {
		j := k * s * s
		for _, idx := range touch {
			st.potential[idx] += 0.1 * f64At(boundary, j) / float64(k+1)
			j++
		}
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
