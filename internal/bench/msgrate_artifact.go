package bench

import (
	"fmt"

	"hpxgo/internal/core"
)

// Message-rate regression rows: a small fixed set of datapath
// configurations measured as (ns/op, allocs/op), committed as
// results/BENCH_msgrate.json and re-checked by `make bench-gate` so a
// datapath change that regresses throughput or steady-state allocation
// shows up in `make check` instead of in a later profiling session.

// msgRatePoints enumerates the gated configurations.
func msgRatePoints(sc Scale) []point[MsgRateParams] {
	return []point[MsgRateParams]{
		{"msgrate/lci_i/64B", MsgRateParams{Size: 64, Batch: 50, Total: sc.Total8B}},
		{"msgrate/lci_i_agg/64B", MsgRateParams{Size: 64, Batch: 50, Total: sc.Total8B, Agg: true}},
		{"msgrate/lci_i/16KiB", MsgRateParams{Size: 16384, Batch: 10, Total: sc.Total16K}},
	}
}

// bestMsgRate measures one lci_i configuration on the 2-node Expanse fabric,
// best-of-reps: the maximum rate and minimum allocs/op across repetitions
// (the gate wants the achievable floor, not scheduling noise), plus the
// fraction of deliveries the inline lane took on the fastest rep.
func bestMsgRate(sc Scale, p MsgRateParams) (rate, allocsOp, inlineFrac float64, err error) {
	p.Fabric, p.MeasureAllocs = Expanse.Fabric(2), true
	var inlined, delivered uint64
	p.Inspect = func(rt *core.Runtime) {
		inlined, delivered = 0, 0
		for i := 0; i < rt.Localities(); i++ {
			inlined += rt.Locality(i).InlineExecuted()
			delivered += rt.Locality(i).ParcelsExecuted()
		}
	}
	for r := 0; r < max(sc.Reps, 3); r++ {
		res, err := MessageRate("lci_i", p)
		if err != nil {
			return 0, 0, 0, err
		}
		if res.MsgRate > rate {
			rate = res.MsgRate
			if delivered > 0 {
				inlineFrac = float64(inlined) / float64(delivered)
			}
		}
		if allocsOp == 0 || res.AllocsPerMsg < allocsOp {
			allocsOp = res.AllocsPerMsg
		}
	}
	return rate, allocsOp, inlineFrac, nil
}

// nsPer converts a rate per second into nanoseconds per operation.
func nsPer(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return 1e9 / rate
}

// measureMsgRate measures every gated point.
func measureMsgRate(sc Scale) ([]Record, error) {
	var recs []Record
	for _, pt := range msgRatePoints(sc) {
		rate, allocs, _, err := bestMsgRate(sc, pt.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.op, err)
		}
		recs = append(recs, row(pt.op, "ns_op", nsPer(rate), "allocs_op", allocs, "msg_rate", rate))
	}
	return recs, nil
}
