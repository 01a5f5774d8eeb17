package octotiger

import (
	"fmt"
	"sort"
)

// Params sizes the proxy problem.
type Params struct {
	// MaxLevel is the maximum octree refinement level — the paper's knob for
	// the computation/communication ratio (6 on Expanse, 5 on Rostam,
	// deliberately small so inter-process communication dominates).
	MaxLevel int
	// MinLevel is fully refined; cells beyond it refine adaptively.
	// Default 2.
	MinLevel int
	// RefineFraction is the fraction of candidate cells refined at each
	// level beyond MinLevel (deterministic pseudo-random). Default 0.5.
	RefineFraction float64
	// SubgridSize is the per-leaf subgrid edge length (Octo-Tiger uses 8).
	// Default 8.
	SubgridSize int
	// Fields is the number of hydro fields exchanged per boundary.
	// Default 4.
	Fields int
	// StopStep is the number of simulation steps (the paper uses 5).
	StopStep int
	// Seed makes the adaptive refinement deterministic.
	Seed uint64
	// RegridEvery triggers adaptive regridding after every N steps
	// (0 = never), re-adapting the octree to the evolving solution like the
	// real application.
	RegridEvery int
	// RegridThreshold is the field-variance indicator above which a leaf
	// refines. Default 0.05.
	RegridThreshold float64
}

func (p *Params) fillDefaults() {
	if p.MaxLevel <= 0 {
		p.MaxLevel = 4
	}
	if p.MinLevel <= 0 {
		p.MinLevel = 2
	}
	if p.MinLevel > p.MaxLevel {
		p.MinLevel = p.MaxLevel
	}
	if p.RefineFraction == 0 {
		p.RefineFraction = 0.5
	}
	if p.SubgridSize <= 0 {
		p.SubgridSize = 8
	}
	if p.Fields <= 0 {
		p.Fields = 4
	}
	if p.StopStep <= 0 {
		p.StopStep = 5
	}
	if p.Seed == 0 {
		p.Seed = 0x0C70714E5
	}
	if p.RegridThreshold == 0 {
		p.RegridThreshold = 0.05
	}
}

// Leaf is one octree leaf (a subgrid owner).
type Leaf struct {
	Index   int    // position in Morton order
	Level   int    // refinement level
	X, Y, Z uint32 // integer coordinates at Level
	Morton  uint64 // Morton key at MaxLevel resolution (for ordering)
	Owner   int    // owning locality

	// Neighbors[f] is the leaf index adjacent across face f (-X,+X,-Y,+Y,
	// -Z,+Z), or -1 at the domain boundary. With adaptive refinement the
	// neighbour may be at a coarser level.
	Neighbors [6]int
}

// Tree is the adaptive octree, shared (read-only after Build) by all
// localities in the simulated cluster.
type Tree struct {
	Params Params
	Leaves []*Leaf

	// index maps (level, x, y, z) to a leaf.
	index map[cellKey]int
	// owned[l] lists the leaves locality l owns, in Morton order (see
	// partition).
	owned [][]int
}

type cellKey struct {
	level   int
	x, y, z uint32
}

// splitmix64 is the deterministic hash behind adaptive refinement decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// BuildTree constructs the adaptive octree and partitions its leaves over
// localities with the Morton space-filling curve.
func BuildTree(p Params, localities int) (*Tree, error) {
	p.fillDefaults()
	if localities <= 0 {
		return nil, fmt.Errorf("octotiger: need at least one locality")
	}
	t := &Tree{Params: p, index: make(map[cellKey]int)}

	// Recursive refinement from the root cell.
	type cell struct {
		level   int
		x, y, z uint32
	}
	var leaves []cell
	var refine func(c cell)
	refine = func(c cell) {
		doRefine := false
		if c.level < p.MinLevel {
			doRefine = true
		} else if c.level < p.MaxLevel {
			h := splitmix64(p.Seed ^ MortonEncode(c.x, c.y, c.z) ^ uint64(c.level)<<56)
			doRefine = float64(h%1000)/1000.0 < p.RefineFraction
		}
		if !doRefine {
			leaves = append(leaves, c)
			return
		}
		for dz := uint32(0); dz < 2; dz++ {
			for dy := uint32(0); dy < 2; dy++ {
				for dx := uint32(0); dx < 2; dx++ {
					refine(cell{c.level + 1, c.x<<1 | dx, c.y<<1 | dy, c.z<<1 | dz})
				}
			}
		}
	}
	refine(cell{0, 0, 0, 0})

	// Sort leaves by Morton key at max-level resolution.
	t.Leaves = make([]*Leaf, len(leaves))
	for i, c := range leaves {
		shift := uint(p.MaxLevel - c.level)
		t.Leaves[i] = &Leaf{
			Level: c.level, X: c.x, Y: c.y, Z: c.z,
			Morton: MortonEncode(c.x<<shift, c.y<<shift, c.z<<shift),
		}
	}
	sort.Slice(t.Leaves, func(i, j int) bool { return t.Leaves[i].Morton < t.Leaves[j].Morton })
	for i, lf := range t.Leaves {
		lf.Index = i
		t.index[cellKey{lf.Level, lf.X, lf.Y, lf.Z}] = i
	}

	t.partition(localities)
	return t, nil
}

// partition assigns owners over the Morton-sorted, indexed leaves —
// contiguous ranges balanced by leaf count — caches each locality's owned
// list and resolves every leaf's face neighbours.
func (t *Tree) partition(localities int) {
	n := len(t.Leaves)
	t.owned = make([][]int, localities)
	for i, lf := range t.Leaves {
		lf.Owner = i * localities / n
		t.owned[lf.Owner] = append(t.owned[lf.Owner], i)
	}
	// Neighbour finding: same-level first, then walk to coarser ancestors.
	deltas := [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
	for _, lf := range t.Leaves {
		for f, d := range deltas {
			lf.Neighbors[f] = t.findNeighbor(lf, d)
		}
	}
}

// findNeighbor locates the leaf adjacent to lf across the face with unit
// offset d, allowing coarser neighbours. Returns -1 outside the domain.
func (t *Tree) findNeighbor(lf *Leaf, d [3]int) int {
	level := lf.Level
	x, y, z := int(lf.X)+d[0], int(lf.Y)+d[1], int(lf.Z)+d[2]
	max := 1 << uint(level)
	if x < 0 || y < 0 || z < 0 || x >= max || y >= max || z >= max {
		return -1
	}
	cx, cy, cz := uint32(x), uint32(y), uint32(z)
	for l := level; l >= 0; l-- {
		if idx, ok := t.index[cellKey{l, cx, cy, cz}]; ok {
			return idx
		}
		cx, cy, cz = cx>>1, cy>>1, cz>>1
	}
	// A finer neighbour: descend into the face-adjacent child closest to lf.
	// (Occurs when lf is coarser than its neighbours.) Walk down on the
	// touching side.
	cx, cy, cz = uint32(x), uint32(y), uint32(z)
	for l := level + 1; l <= t.Params.MaxLevel; l++ {
		cx, cy, cz = descendToward(cx, d[0]), descendToward(cy, d[1]), descendToward(cz, d[2])
		if idx, ok := t.index[cellKey{l, cx, cy, cz}]; ok {
			return idx
		}
	}
	return -1
}

// descendToward picks the child coordinate on the side touching the
// requesting leaf: entering from the positive side selects the low child,
// from the negative side the high child, and no offset stays centred low.
func descendToward(c uint32, d int) uint32 {
	child := c << 1
	if d < 0 {
		child |= 1 // neighbour is on our -side: its far (high) child touches us
	}
	return child
}

// OwnedLeaves returns the indices of leaves owned by a locality, in Morton
// order. The slice is the tree's own, computed once when the tree was built:
// callers must not modify it.
func (t *Tree) OwnedLeaves(loc int) []int {
	if loc < 0 || loc >= len(t.owned) {
		return nil
	}
	return t.owned[loc]
}

// RemoteFaces counts leaf faces whose neighbour lives on another locality —
// the inter-process communication volume per step.
func (t *Tree) RemoteFaces() int {
	n := 0
	for _, lf := range t.Leaves {
		for _, nb := range lf.Neighbors {
			if nb >= 0 && t.Leaves[nb].Owner != lf.Owner {
				n++
			}
		}
	}
	return n
}
