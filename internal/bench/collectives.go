package bench

import (
	"fmt"
	"runtime"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/stats"
	"hpxgo/internal/wire"
)

// Collectives scaling: flat O(N) fan-out versus tree-structured collectives
// across simulated cluster sizes, the source of the collectives artifact
// (op, impl, nodes, mean ns/op with its stddev over reps, allocs/op, reps).
// The flat baseline is flatFanOut below, on the public CallID.

// collOp runs one collective once (the unit the sweep times).
type collOp struct {
	op   string
	impl string
	run  func(rt *core.Runtime) error
}

// collOps enumerates the measured operations. The reduce fold sums one
// uint64 per locality, so payloads stay O(1) and the measurement isolates
// the fan-out/fan-in structure itself.
func collOps() []collOp {
	const timeout = 2 * time.Minute
	return []collOp{
		{"broadcast", "tree", func(rt *core.Runtime) error {
			return rt.Broadcast(0, timeout, "bench_mark")
		}},
		{"broadcast", "flat", func(rt *core.Runtime) error {
			return flatFanOut(rt, timeout, "bench_mark", nil)
		}},
		{"reduce", "tree", func(rt *core.Runtime) error {
			_, err := rt.Reduce(0, timeout, "bench_myid", wire.SumU64Fold)
			return err
		}},
		{"reduce", "flat", func(rt *core.Runtime) error {
			return flatFanOut(rt, timeout, "bench_myid", wire.SumU64Fold)
		}},
	}
}

// flatFanOut is the flat baseline: locality 0 calls action on every
// locality, itself included, and waits for each reply in rank order,
// folding the replies when fold is set. Every parcel leaves the root, whose
// injection queue serializes the whole operation.
func flatFanOut(rt *core.Runtime, timeout time.Duration, action string, fold core.FoldFunc) error {
	id, ok := rt.ActionID(action)
	if !ok {
		return fmt.Errorf("unknown action %q", action)
	}
	root := rt.Locality(0)
	futs := make([]*amt.Future[[][]byte], rt.Localities())
	for k := range futs {
		futs[k] = root.CallID(k, id, nil)
	}
	var acc [][]byte
	for k, f := range futs {
		res, err := f.GetTimeout(timeout)
		if err != nil {
			return fmt.Errorf("locality %d: %w", k, err)
		}
		if fold != nil && k > 0 {
			res = fold(acc, res)
		}
		acc = res
	}
	return nil
}

// collRuntime assembles a cluster of n localities for the sweep: one worker
// per locality (the sweep measures communication structure, not compute) on
// the baseline lci parcelport.
//
// The fabric runs with the LogP-style sender-occupancy model on
// (SendGapNs): each packet occupies its sender's egress for 1ms of
// simulated time, serialized across all destinations. That term — not
// bandwidth, which the fabric models per destination pair — is what makes
// a flat fan-out O(N) at its root, and because simulated occupancy
// advances without host CPU, the flat-vs-tree structure stays measurable
// on a single-core host where wall time would otherwise just report total
// CPU serialization. The 1ms gap is deliberately scaled up from real NIC
// overheads (~1µs) by the same style of reduction the rest of the harness
// applies to message counts: it keeps simulated network time dominant over
// the simulator's own CPU cost.
func collRuntime(n int) (*core.Runtime, error) {
	rt, err := core.NewRuntime(core.Config{
		Localities:         n,
		WorkersPerLocality: 1,
		Parcelport:         "lci",
		IdleSleep:          100 * time.Microsecond,
		Fabric: fabric.Config{
			LatencyNs:           100_000, // 100µs one-way
			GbitsPerSec:         100,
			Rails:               1,
			PacketOverheadBytes: 64,
			SendGapNs:           1_000_000, // 1ms egress occupancy per packet
		},
	})
	if err != nil {
		return nil, err
	}
	rt.MustRegisterAction("bench_mark", func(loc *core.Locality, args [][]byte) [][]byte {
		return nil
	})
	rt.MustRegisterAction("bench_myid", func(loc *core.Locality, args [][]byte) [][]byte {
		return [][]byte{wire.U64(uint64(loc.ID()))}
	})
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return rt, nil
}

// measureCollectives measures every operation at every cluster size. For
// each (op, nodes) pair it runs one warmup collective, then sc.Reps timed
// repetitions of sc.CollIters collectives each; the mean and stddev over
// repetitions land in the record. Allocation counts are process-wide malloc
// deltas (the whole simulated cluster lives in this process, so they bound
// the collective's true footprint from above).
func measureCollectives(sc Scale) ([]Record, error) {
	var recs []Record
	for _, n := range sc.CollNodes {
		rt, err := collRuntime(n)
		if err != nil {
			return nil, err
		}
		for _, op := range collOps() {
			if err := op.run(rt); err != nil { // warmup
				rt.Shutdown()
				return nil, fmt.Errorf("%s/%s at %d nodes: %w", op.op, op.impl, n, err)
			}
			nsPerRep := make([]float64, 0, sc.Reps)
			var allocs uint64
			var ms0, ms1 runtime.MemStats
			for r := 0; r < sc.Reps; r++ {
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for i := 0; i < sc.CollIters; i++ {
					if err := op.run(rt); err != nil {
						rt.Shutdown()
						return nil, fmt.Errorf("%s/%s at %d nodes: %w", op.op, op.impl, n, err)
					}
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				nsPerRep = append(nsPerRep, float64(elapsed.Nanoseconds())/float64(sc.CollIters))
				allocs += ms1.Mallocs - ms0.Mallocs
			}
			sum := stats.Summarize(nsPerRep)
			recs = append(recs, row(op.op, "impl", op.impl, "nodes", n,
				"ns_op", sum.Mean, "ns_op_err", sum.Stddev,
				"allocs_op", float64(allocs)/float64(sc.Reps*sc.CollIters), "reps", sc.Reps))
		}
		rt.Shutdown()
	}
	return recs, nil
}
