package bench

import "fmt"

// Inline-lane benchmark: the run-to-completion delivery artifact behind
// DESIGN.md §14. Two kinds of rows, committed as results/BENCH_inline.json
// and re-checked by `make bench-gate`:
//
//   - the 64 B aggregated message-rate A/B with the inline lane on (default)
//     and forced off (spawn-always, the pre-inline datapath), measured over
//     the same wire and workload — the headline claim is the on/off ratio;
//   - the serving-tier Zipf capacity row with the inline lane on, gated
//     against its own committed row like every other (the inline lane must
//     not regress a workload whose actions were already cheap).
//
// The 0 allocs/op inline steady-state claim is enforced separately by
// `make alloc-gate` (TestDeliverInlineBundleZeroAllocs): AllocsPerRun is
// exact where a wire-level process-wide malloc count is noisy.

// Row names the inline claims reference.
const (
	inlineOnRow    = "inline/msgrate/64B/on"
	inlineOffRow   = "inline/msgrate/64B/off"
	inlineServeRow = "inline/serve/zipf/cache"
)

// inlineRow renders one measured rate as an artifact row.
func inlineRow(op string, rate, allocsOp, inlineFrac float64) Record {
	return row(op, "rate", rate, "ns_op", nsPer(rate), "allocs_op", allocsOp, "inline_frac", inlineFrac)
}

// measureInline measures the 64 B aggregated message rate with the inline
// lane on and off (inline_frac = inline-executed / delivered), then the
// serving-tier Zipf closed-loop capacity with the lane at its defaults — the
// same configuration as BENCH_serve.json's serve/zipf/cache row.
func measureInline(sc Scale) ([]Record, error) {
	var recs []Record
	for _, pt := range []struct {
		op  string
		off bool
	}{{inlineOnRow, false}, {inlineOffRow, true}} {
		rate, allocs, frac, err := bestMsgRate(sc, MsgRateParams{
			Size: 64, Batch: 50, Total: sc.Total8B, Agg: true, InlineOff: pt.off,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.op, err)
		}
		recs = append(recs, inlineRow(pt.op, rate, allocs, frac))
	}
	res, err := serveRow(sc, servePoints(sc)[0]) // serve/zipf/cache
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inlineServeRow, err)
	}
	return append(recs, inlineRow(inlineServeRow, res.Throughput, 0, 0)), nil
}
