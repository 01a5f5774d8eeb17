package octotiger

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/core"
	"hpxgo/internal/wire"
)

// App runs the Octo-Tiger proxy on a core.Runtime. Create it after
// NewRuntime and before Start (it registers actions).
type App struct {
	rt   *core.Runtime
	p    Params
	tree *Tree

	// states is indexed by leaf index; entry i is logically resident on
	// Leaves[i].Owner and only ever touched by that locality's tasks.
	states []*leafState
	// weights is momentWeights(SubgridSize) and faces is
	// faceTable(SubgridSize). Regrid keeps the subgrid size, so the tables
	// built in New stay valid for the App's lifetime.
	weights []float64
	faces   [6][]int32

	aBoundary uint32
	aPartial  uint32

	initialMass float64
	steps       int
}

// New builds the tree, initializes leaf state and registers the proxy's
// actions on the runtime.
func New(rt *core.Runtime, p Params) (*App, error) {
	p.fillDefaults()
	tree, err := BuildTree(p, rt.Localities())
	if err != nil {
		return nil, err
	}
	a := &App{rt: rt, p: p, tree: tree, weights: momentWeights(p.SubgridSize), faces: faceTable(p.SubgridSize)}
	a.states = make([]*leafState, len(tree.Leaves))
	for i, lf := range tree.Leaves {
		a.states[i] = newLeafState(p, lf)
		a.initialMass += a.states[i].mass()
	}

	// ot_boundary pulls one face of a leaf; it never blocks, so it carries
	// the inline hint: a pull that arrives by parcel runs on the draining
	// goroutine, and a pull of a leaf the caller's own locality owns runs
	// directly on the caller (HPX's direct action; see core.Locality.CallID).
	a.aBoundary = rt.MustRegisterInlineAction("ot_boundary", a.boundary)

	// ot_partial returns a locality's partial mass, for the per-step global
	// reduction (a latency-sensitive small-message phase).
	a.aPartial = rt.MustRegisterAction("ot_partial", func(loc *core.Locality, args [][]byte) [][]byte {
		var mass float64
		for _, idx := range a.tree.OwnedLeaves(loc.ID()) {
			mass += a.states[idx].mass()
		}
		return [][]byte{wire.F64(mass)}
	})
	return a, nil
}

// boundary is the ot_boundary action: it returns the committed hydro face
// payload and the multipole moments of one leaf, the per-face exchange of the
// real application (one multi-KiB zero-copy-eligible blob plus one small
// blob). Both were built by the leaf's Phase A, so a pull copies and
// allocates nothing; the reply is valid until the next step's Phase A.
func (a *App) boundary(_ *core.Locality, args [][]byte) [][]byte {
	if len(args) != 1 || len(args[0]) != 5 {
		return nil
	}
	leafIdx := int(binary.LittleEndian.Uint32(args[0]))
	face := int(args[0][4])
	if leafIdx < 0 || leafIdx >= len(a.states) || face > 5 {
		return nil
	}
	return a.states[leafIdx].replies[face][:]
}

// Tree exposes the octree (tests, reporting).
func (a *App) Tree() *Tree { return a.tree }

// Params returns the effective (default-filled) parameters.
func (a *App) Params() Params { return a.p }

// Steps returns the number of completed steps.
func (a *App) Steps() int { return a.steps }

// TotalMass returns the current conserved mass.
func (a *App) TotalMass() float64 {
	var m float64
	for _, st := range a.states {
		m += st.mass()
	}
	return m
}

// InitialMass returns the mass at initialization.
func (a *App) InitialMass() float64 { return a.initialMass }

// PotentialChecksum folds every leaf's committed field 0 into one number in
// deterministic (Morton) order; it must not depend on the parcelport or the
// locality count.
func (a *App) PotentialChecksum() float64 {
	var sum float64
	for _, st := range a.states {
		for i, v := range st.fields[0] {
			sum += v * math.Mod(float64(i)*0.37, 1.0)
		}
	}
	return sum
}

// stepTimeout bounds one step; communication bugs surface as errors rather
// than hangs.
const stepTimeout = 5 * time.Minute

// Step executes one simulation step across all localities.
func (a *App) Step() error {
	// Phase A: multipole moments and the ot_boundary replies built from
	// them (local compute, no communication).
	if err := a.forAllLocalities(func(loc *core.Locality) error {
		for _, idx := range a.tree.OwnedLeaves(loc.ID()) {
			st := a.states[idx]
			st.computeMoments(a.weights)
			st.prepareReplies(&a.faces)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("octotiger: moments phase: %w", err)
	}

	// Phase B: boundary exchange + interaction kernel. Leaves are processed
	// in worker-count chunks so a locality's workers overlap communication
	// and compute, exactly the pattern that stresses the parcelport.
	if err := a.forAllLocalities(a.exchangeAndKernel); err != nil {
		return fmt.Errorf("octotiger: exchange phase: %w", err)
	}

	// Phase C: global mass reduction (small-message latency phase), using
	// the runtime's Reduce collective.
	res, err := a.rt.Reduce(0, stepTimeout, "ot_partial", wire.SumF64Fold)
	if err != nil {
		return fmt.Errorf("octotiger: mass reduction: %w", err)
	}
	total, err := wire.ToF64(res[0])
	if err != nil {
		return fmt.Errorf("octotiger: mass reduction result: %w", err)
	}
	if rel := math.Abs(total-a.initialMass) / a.initialMass; rel > 1e-9 {
		return fmt.Errorf("octotiger: mass not conserved: %g vs %g", total, a.initialMass)
	}

	// Phase D: commit the update (local).
	if err := a.forAllLocalities(func(loc *core.Locality) error {
		for _, idx := range a.tree.OwnedLeaves(loc.ID()) {
			a.states[idx].commit()
		}
		return nil
	}); err != nil {
		return fmt.Errorf("octotiger: commit phase: %w", err)
	}
	a.steps++
	return nil
}

// Run executes StopStep steps (regridding between steps when configured)
// and returns the achieved steps per second.
func (a *App) Run() (stepsPerSecond float64, err error) {
	start := time.Now()
	for s := 0; s < a.p.StopStep; s++ {
		if err := a.Step(); err != nil {
			return 0, err
		}
		if a.p.RegridEvery > 0 && (s+1)%a.p.RegridEvery == 0 && s+1 < a.p.StopStep {
			if _, err := a.Regrid(a.p.RegridThreshold); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(a.p.StopStep) / elapsed, nil
}

// forAllLocalities runs fn as a task on every locality and waits for all.
func (a *App) forAllLocalities(fn func(loc *core.Locality) error) error {
	futs := make([]*amt.Future[struct{}], a.rt.Localities())
	for l := 0; l < a.rt.Localities(); l++ {
		loc := a.rt.Locality(l)
		futs[l] = core.Async(loc, func() (struct{}, error) {
			return struct{}{}, fn(loc)
		})
	}
	for l, f := range futs {
		if _, err := f.GetTimeout(stepTimeout); err != nil {
			return fmt.Errorf("locality %d: %w", l, err)
		}
	}
	return nil
}

// exchangeAndKernel is phase B on one locality: pull every remote (and
// local) neighbour boundary and fold it into the kernel, chunked across the
// locality's workers.
func (a *App) exchangeAndKernel(loc *core.Locality) error {
	owned := a.tree.OwnedLeaves(loc.ID())
	workers := loc.Scheduler().Workers()
	chunks := workers
	if chunks > len(owned) {
		chunks = len(owned)
	}
	if chunks == 0 {
		return nil
	}
	futs := make([]*amt.Future[struct{}], chunks)
	for c := 0; c < chunks; c++ {
		lo := c * len(owned) / chunks
		hi := (c + 1) * len(owned) / chunks
		part := owned[lo:hi]
		futs[c] = core.Async(loc, func() (struct{}, error) {
			return struct{}{}, a.processLeaves(loc, part)
		})
	}
	for _, f := range futs {
		if _, err := f.GetTimeout(stepTimeout); err != nil {
			return err
		}
	}
	return nil
}

// processLeaves runs the exchange + kernel for a chunk of owned leaves in
// dataflow shape: every face pull of the chunk is issued before the first
// wait, so remote pulls overlap each other and the kernel, and local pulls
// (direct actions) have completed by the time they are issued. Faces are then
// applied leaf by leaf in Morton and face order, which keeps every leaf's
// potential update bit-identical to a leaf-by-leaf exchange.
func (a *App) processLeaves(loc *core.Locality, leaves []int) error {
	n := 0
	for _, idx := range leaves {
		for _, nb := range a.tree.Leaves[idx].Neighbors {
			if nb >= 0 {
				n++
			}
		}
	}
	// One backing array each for the requests and their argument lists: a
	// queued remote pull may be encoded after this loop moves on, so no
	// request buffer is reused within the chunk.
	reqs := make([]byte, 5*n)
	argv := make([][]byte, n)
	futs := make([]*amt.Future[[][]byte], 0, n)
	for _, idx := range leaves {
		for f, nb := range a.tree.Leaves[idx].Neighbors {
			if nb < 0 {
				continue
			}
			// Ask the neighbour's owner for the face it shows us (its
			// opposite face).
			k := len(futs)
			req := reqs[5*k : 5*k+5]
			binary.LittleEndian.PutUint32(req[:4], uint32(nb))
			req[4] = byte(f ^ 1)
			argv[k] = req
			futs = append(futs, loc.CallID(a.tree.Leaves[nb].Owner, a.aBoundary, argv[k:k+1]))
		}
	}
	k := 0
	for _, idx := range leaves {
		st := a.states[idx]
		st.selfInteraction(a.p)
		for f, nb := range a.tree.Leaves[idx].Neighbors {
			if nb < 0 {
				continue
			}
			res, err := futs[k].GetTimeout(stepTimeout)
			k++
			if err != nil {
				return fmt.Errorf("boundary pull: %w", err)
			}
			if err := st.applyBoundary(a.p, &a.faces, f, res); err != nil {
				return fmt.Errorf("boundary pull of leaf %d face %d: %w", nb, f^1, err)
			}
		}
	}
	return nil
}
