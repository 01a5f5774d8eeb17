package bench

// Gate rules shared across artifacts.
var (
	// gateTime / gateRate: wall time on a shared host, so the headroom is
	// generous — the gate exists to catch step regressions (a lost fast
	// path, a new per-message allocation), not percent-level drift.
	gateTime = Rule{Dir: Lower, Factor: 1.8}
	gateRate = Rule{Dir: Higher, Factor: 1.8}
	// gateAllocs: allocs/op is nearly deterministic, so its band is tight;
	// the +3 slack keeps near-zero rows from failing on one stray malloc.
	gateAllocs = Rule{Dir: Lower, Factor: 1.5, Slack: 3}
	// gateLatMean / gateLatTail: latency gate tolerances, set from the
	// measured noise band at quick scale on the 1-CPU CI host: across 5
	// repeated best-of-5 runs the mean and p50 wander up to ~2.1x between
	// the fastest and slowest run, the p99 up to ~2.2x (a single
	// descheduling spike lands in the tail). The factors leave headroom over
	// the worst observed fresh-vs-committed wander, so a true step
	// regression (eager-path work doubling, a lost fast path — historically
	// 3x+) still fails while honest jitter passes. Characterization recorded
	// in EXPERIMENTS.md.
	gateLatMean = Rule{Dir: Lower, Factor: 2.5}
	gateLatTail = Rule{Dir: Lower, Factor: 3.0}
	// gateServeTail: the serve cache row's p99 against the committed
	// artifact. Closed-loop p99 on the 1-CPU host is scheduler jitter among
	// hundreds of client goroutines and wanders ~3.3x run to run (measured
	// 2.0-6.6 ms across repeated gate runs, and a committed value can land
	// at the low end of that band), so gateTime's 1.8x is far too tight for
	// this column. A queueing collapse is 10x+ (see the overload row), still
	// caught. Only the cache row's tail is a stable promise: the overdriven
	// baseline rows' p99 is queueing delay by design.
	gateServeTail = Rule{Dir: Lower, Factor: 5.0, Only: serveZipfCache}
)

// dpAllocsMax: every steady-state datapath row must not allocate.
const dpAllocsMax = 0.5

// Artifacts is every BENCH_*.json the repo produces. Adding one is one entry
// here plus its Measure.
var Artifacts = []Artifact{
	{
		Name: "collectives", File: "BENCH_collectives.json", InAll: true,
		Columns: []Column{
			{Key: "impl", Head: "impl", Prec: -1},
			{Key: "nodes", Head: "nodes"},
			{Key: "ns_op", Head: "ns/op"},
			{Key: "ns_op_err", Head: "stddev"},
			{Key: "allocs_op", Head: "allocs/op", Prec: 1},
			{Key: "reps", Head: "reps"},
		},
		Measure: measureCollectives,
	},
	{
		Name: "msgrate-bench", File: "BENCH_msgrate.json",
		Columns: []Column{
			{Key: "ns_op", Head: "ns/op", Gate: gateTime},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2, Gate: gateAllocs},
			{Key: "msg_rate", Head: "msgs/s"},
		},
		Measure: measureMsgRate,
	},
	{
		Name: "rendezvous-bench", File: "BENCH_rendezvous.json",
		Columns: []Column{
			{Key: "ns_op", Head: "ns/op", Gate: gateTime},
			{Key: "gbps", Head: "Gbps", Prec: 1},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2, Gate: gateAllocs},
		},
		Claims: []Claim{
			// Physics allows ~4x (four rails transmit concurrently) and
			// typical runs measure 3.3-3.6x, but the ratio of two
			// median-of-5 rows still dips to ~2.8x about once in ten runs on
			// the 1-CPU host; 2.5 stays under the noise band while still
			// proving the structural win over the blob path.
			{Row: rendC64KR4, Col: "gbps", Dir: Higher, Bound: 2.5, Base: rendBlobR4,
				Why: "chunked 1 MiB on 4 rails must out-stripe the single blob"},
			{Row: rendC64KR1, Col: "gbps", Dir: Higher, Bound: 0.75, Base: rendBlobR1,
				Why: "chunking must not tax the one-rail config that cannot benefit from it"},
			// Any chunk size: chunks are injected zero-copy (fabric Borrow),
			// so no payload buffer is ever created on the sender, and the
			// receiver copies into the posted buffer.
			{Row: "rendezvous/c*", Col: "allocs_op", Dir: Lower, Bound: 0.5,
				Why: "chunked steady state must not allocate"},
		},
		Measure: measureRendezvous,
	},
	{
		Name: "latency-bench", File: "BENCH_latency.json",
		Columns: []Column{
			{Key: "mean_us", Head: "mean_us", Prec: 2, Gate: gateLatMean},
			{Key: "p50_us", Head: "p50_us", Prec: 2, Gate: gateLatMean},
			{Key: "p99_us", Head: "p99_us", Prec: 2, Gate: gateLatTail},
			// Recorded but not gated — a single worst packet is pure
			// scheduler luck on a shared host.
			{Key: "max_us", Head: "max_us", Prec: 2},
		},
		Measure: measureLatency,
	},
	{
		Name: "serve", File: "BENCH_serve.json",
		Columns: []Column{
			{Key: "ops_sec", Head: "ops/s", Gate: gateRate},
			{Key: "p50_us", Head: "p50_us", Prec: 1},
			{Key: "p99_us", Head: "p99_us", Prec: 1, Gate: gateServeTail},
			{Key: "p999_us", Head: "p999_us", Prec: 1},
			{Key: "hit_rate", Head: "hit_rate", Prec: 2},
			{Key: "shed_frac", Head: "shed", Prec: 2},
			{Key: "completed", Head: "completed"},
			{Key: "offered", Head: "offered"},
		},
		Claims: []Claim{
			// At saturation (closed-loop) the hot set fits the cache while
			// the keyspace does not, so most GETs are served locally; 2x
			// leaves headroom below the ~3x measured ratio.
			{Row: serveZipfCache, Col: "ops_sec", Dir: Higher, Bound: 2.0, Base: serveZipfNoCache,
				Why: "cache + coalescing must at least double Zipf capacity"},
			// Zipf(1.2) over a keyspace 8x the cache capacity concentrates
			// ~85% of draws in the cacheable hot set; CLOCK approximation
			// and write-through churn eat some of that.
			{Row: serveZipfCache, Col: "hit_rate", Dir: Higher, Bound: 0.5,
				Why: "the cache must absorb the hot set"},
			// An admission benchmark where nothing sheds measures nothing.
			{Row: serveAdmitRow, Col: "shed_frac", Dir: Higher, Bound: 0.05,
				Why: "the admit row must engage the shard token bucket"},
			// Same offered rate, same cache-off config. In practice
			// shedding wins by >10x; 1.0 is the claim's floor.
			{Row: serveAdmitRow, Col: "p99_us", Dir: Lower, Bound: 1.0, Base: serveOverRow,
				Why: "shedding the excess must bound the tail below the unprotected overload row's"},
		},
		Measure: measureServe,
	},
	{
		Name: "inline", File: "BENCH_inline.json",
		Columns: []Column{
			{Key: "rate", Head: "rate/s", Gate: gateRate},
			{Key: "ns_op", Head: "ns/op"},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2, Gate: gateAllocs},
			{Key: "inline_frac", Head: "inline_frac", Prec: 2},
		},
		Claims: []Claim{
			// Measured ~4x on the 1-CPU host (the spawn path pays handoff,
			// wakeup, and scheduling per parcel that run-to-completion does
			// not); 1.3x is the claim's floor, far below the observed band
			// so scheduler noise cannot flip it.
			{Row: inlineOnRow, Col: "rate", Dir: Higher, Bound: 1.3, Base: inlineOffRow,
				Why: "the inline lane must beat spawn-always on 64 B parcels"},
			// A speedup measured while the lane sat idle would be measuring
			// something else.
			{Row: inlineOnRow, Col: "inline_frac", Dir: Higher, Bound: 0.5,
				Why: "the on-row must run a substantial share of its parcels inline"},
			{Row: inlineOffRow, Col: "inline_frac", Dir: Lower, Bound: 0,
				Why: "the spawn-always row must run nothing inline, or the A/B is not an A/B"},
		},
		Measure: measureInline,
	},
	{
		Name: "fabric-bench", File: "BENCH_fabric.json",
		Columns: []Column{
			{Key: "ns_op", Head: "ns/op", Prec: 1},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2},
		},
		Claims: []Claim{
			// The ready index makes poll depend on traffic, not cluster size
			// (prose: 234 ns flat across 2/16/64; was 3.7x).
			{Row: dpPoll1N64, Col: "ns_op", Dir: Lower, Bound: 2.0, Base: dpPoll1N2,
				Why: "poll cost must be flat in cluster size"},
			{Row: dpPollEmptyN64, Col: "ns_op", Dir: Lower, Bound: 2.0, Base: dpPollEmptyN2,
				Why: "quiescent poll cost must be flat in cluster size"},
			{Row: "*", Col: "allocs_op", Dir: Lower, Bound: dpAllocsMax,
				Why: "datapath steady state must not allocate"},
		},
		Measure: measureFabric,
	},
	{
		Name: "deliver-bench", File: "BENCH_deliver.json",
		Columns: []Column{
			{Key: "ns_op", Head: "ns/op", Prec: 1},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2},
		},
		Claims: []Claim{
			// Per-parcel cost at least halves under batching (prose: 10685
			// vs 1430 ns, i.e. 7.5x for 32x the work).
			{Row: dpDeliverB32, Col: "ns_op", Dir: Lower, Bound: 16, Base: dpDeliverB1,
				Why: "bundling must amortize per-parcel cost"},
			{Row: "*", Col: "allocs_op", Dir: Lower, Bound: dpAllocsMax,
				Why: "delivery steady state must not allocate"},
		},
		Measure: measureDeliver,
	},
}
