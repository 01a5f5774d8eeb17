package octotiger

import (
	"fmt"
	"sort"
)

// Adaptive regridding. Real Octo-Tiger periodically re-adapts its octree to
// the evolving solution and re-partitions the new leaves over localities —
// a phase that reshuffles the communication pattern underneath the
// parcelport. The proxy refines any leaf whose field variance exceeds a
// threshold (up to MaxLevel), prolongates the parent data onto the eight
// children mass-conservatively, and rebuilds the Morton partition.

// refinementIndicator scores a leaf by the variance of its first field.
func (st *leafState) refinementIndicator() float64 {
	f := st.fields[0]
	var mean float64
	for _, v := range f {
		mean += v
	}
	mean /= float64(len(f))
	var acc float64
	for _, v := range f {
		d := v - mean
		acc += d * d
	}
	return acc / float64(len(f))
}

// prolong builds the eight children states of a refined leaf: each child
// upsamples one parent octant, scaled so the children's total mass equals
// the parent's.
func prolong(p Params, parent *leafState) []*leafState {
	s := p.SubgridSize
	children := make([]*leafState, 8)
	for ci := range children {
		st := &leafState{potential: make([]float64, s*s*s)}
		st.fields = make([][]float64, len(parent.fields))
		ox := (ci & 1) * s / 2
		oy := (ci >> 1 & 1) * s / 2
		oz := (ci >> 2 & 1) * s / 2
		for k := range st.fields {
			st.fields[k] = make([]float64, s*s*s)
			for z := 0; z < s; z++ {
				for y := 0; y < s; y++ {
					for x := 0; x < s; x++ {
						// Each parent octant cell maps to 2x2x2 child cells;
						// dividing by 8 conserves the total.
						px := ox + x/2
						py := oy + y/2
						pz := oz + z/2
						st.fields[k][x+s*(y+s*z)] = parent.fields[k][px+s*(py+s*pz)] / 8
					}
				}
			}
		}
		children[ci] = st
	}
	return children
}

// Regrid refines every leaf whose indicator exceeds threshold (and is below
// MaxLevel), rebuilds neighbours and the Morton partition, and migrates leaf
// state. Returns the number of leaves refined.
func (a *App) Regrid(threshold float64) (int, error) {
	type newLeaf struct {
		level   int
		x, y, z uint32
		state   *leafState
	}
	var out []newLeaf
	refined := 0
	for _, lf := range a.tree.Leaves {
		st := a.states[lf.Index]
		if lf.Level < a.p.MaxLevel && st.refinementIndicator() > threshold {
			refined++
			children := prolong(a.p, st)
			for ci, cst := range children {
				dx := uint32(ci & 1)
				dy := uint32(ci >> 1 & 1)
				dz := uint32(ci >> 2 & 1)
				out = append(out, newLeaf{
					level: lf.Level + 1,
					x:     lf.X<<1 | dx, y: lf.Y<<1 | dy, z: lf.Z<<1 | dz,
					state: cst,
				})
			}
		} else {
			out = append(out, newLeaf{level: lf.Level, x: lf.X, y: lf.Y, z: lf.Z, state: st})
		}
	}
	if refined == 0 {
		return 0, nil
	}

	// Rebuild the tree structures around the new leaf set.
	t := &Tree{Params: a.p, index: make(map[cellKey]int)}
	t.Leaves = make([]*Leaf, len(out))
	states := make([]*leafState, len(out))
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	mortonOf := func(nl newLeaf) uint64 {
		shift := uint(a.p.MaxLevel - nl.level)
		return MortonEncode(nl.x<<shift, nl.y<<shift, nl.z<<shift)
	}
	sort.Slice(order, func(i, j int) bool { return mortonOf(out[order[i]]) < mortonOf(out[order[j]]) })
	for rank, oi := range order {
		nl := out[oi]
		t.Leaves[rank] = &Leaf{
			Index: rank, Level: nl.level, X: nl.x, Y: nl.y, Z: nl.z,
			Morton: mortonOf(nl),
		}
		states[rank] = nl.state
		if _, dup := t.index[cellKey{nl.level, nl.x, nl.y, nl.z}]; dup {
			return 0, fmt.Errorf("octotiger: regrid produced duplicate cell (%d,%d,%d,%d)", nl.level, nl.x, nl.y, nl.z)
		}
		t.index[cellKey{nl.level, nl.x, nl.y, nl.z}] = rank
	}
	t.partition(a.rt.Localities())
	a.tree = t
	a.states = states
	return refined, nil
}
