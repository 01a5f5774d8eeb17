package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
	"hpxgo/internal/octotiger"
	"hpxgo/internal/serve"
)

// seg is what one driver goroutine measured in one segment.
type seg struct {
	ops     int           // operations completed (floods: parcels executed at the receiver)
	failed  int           // operations that errored or failed their output check
	elapsed time.Duration // wall time this driver spent in the segment
	lat     []int32       // per-operation latency samples, ns
	traced  bool          // spans were recorded during this segment
	// Driver 0 only: parcels executed on all localities during the segment,
	// and how many of them on the inline lane.
	inline, executed uint64
}

// instance is one set-up, warmed workload: a started runtime plus the
// closed-loop driver state.
type instance interface {
	runtime() *core.Runtime
	// drive runs driver d's closed loop until the deadline passes, recording
	// into s. Spans go to tr when it is non-nil.
	drive(d int, until time.Time, s *seg, tr *tracer)
	// finish drains in-flight work, runs the end-of-run output checks and
	// returns one message per failed check.
	finish() []string
}

// servePeek is implemented by instances that run the serving tier.
type servePeek interface {
	serveStats() serve.ClientStats
}

// workload is one benchmark row. prepare generates every input from the seed
// and returns the set-up function that the harness times (and repeats).
type workload struct {
	name string
	why  string
	// The workload's own name and unit for ops_per_s (with the factor that
	// converts it) and its own prefix for the latency percentiles.
	rateAlias  string
	rateUnit   string
	rateScale  float64
	latAlias   string
	payload    float64 // bytes one operation carries, for wire bytes per payload byte
	maxDrivers int
	prepare    func(seed int64, drivers int) func() (instance, error)
	// budget lists the walked layer metrics (with multiplicity) on the
	// blocking path of one operation; empty when no budget is defined.
	budget []budgetTerm
}

type budgetTerm struct {
	metric string
	count  float64
}

func workloads() []workload {
	return []workload{
		{
			name:      "pingpong_8b",
			why:       "one chain of 8 B CallID echoes, aggregation off: latency-bound, every layer and hand-off is on the blocking path",
			rateAlias: "legs_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "oneway", payload: 8,
			maxDrivers: 1,
			prepare:    preparePingpong,
			// One one-way leg: serialize, parcel layer, header, LCI put,
			// completion pop, deliver (decode+dispatch+spawn); the reply leg
			// ends in a future hand-off, so half of one per leg.
			budget: []budgetTerm{
				{"serialization.encode_64b_ns", 1}, {"parcel.put_ns", 1}, {"parcelport.header_codec_ns", 1},
				{"lci.put_ns", 1}, {"lci.cq_pop_ns", 1}, {"core.deliver_1_ns", 1}, {"amt.future_set_get_ns", 0.5},
			},
		},
		{
			name:      "flood_64b_agg",
			why:       "credit-windowed 64 B ApplyID stream, aggregation on, inline-hinted sink: per-message CPU of the bundled path does the work; the inline lane quits after one slow run, so parcels spawn",
			rateAlias: "msgs_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "completion", payload: 64,
			maxDrivers: 1,
			prepare: func(seed int64, _ int) func() (instance, error) {
				return prepareStream(seed, streamCfg{size: 64, window: 1024, creditEvery: 512, agg: true, rails: 2, inlineSink: true, pool: 1024, traceEvery: 64})
			},
		},
		{
			name:      "flood_64b_direct",
			why:       "the same 64 B traffic with aggregation off: parcel/lcipp/lci/fabric run once per message, so a gain bought for bundles at the per-message path's cost shows",
			rateAlias: "msgs_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "completion", payload: 64,
			maxDrivers: 1,
			prepare: func(seed int64, _ int) func() (instance, error) {
				return prepareStream(seed, streamCfg{size: 64, window: 64, creditEvery: 32, agg: false, rails: 2, inlineSink: true, pool: 1024, traceEvery: 16})
			},
		},
		{
			name:      "xfer_1m_striped",
			why:       "window-4 stream of 1 MiB zero-copy arguments on 4 rails: long protocol and striping carry it; small-message optimisations must show no change here",
			rateAlias: "gbit_per_s", rateUnit: "Gbit/s", rateScale: 8 * (1 << 20) / 1e9, latAlias: "completion", payload: 1 << 20,
			maxDrivers: 1,
			prepare: func(seed int64, _ int) func() (instance, error) {
				return prepareStream(seed, streamCfg{size: 1 << 20, window: 4, creditEvery: 1, agg: false, rails: 4, inlineSink: false, pool: 4, traceEvery: 1})
			},
		},
		{
			name:      "serve_zipf_rw",
			why:       "KV tier, Zipf 1.2 over 2048 keys, 256-entry cache, 90% GET / 10% PUT: cache, single-flight and write-through do the work; writes beside reads expose a read gain paid by writes",
			rateAlias: "ops_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "op", payload: serveValueBytes,
			maxDrivers: 2,
			prepare: func(seed int64, drivers int) func() (instance, error) {
				return prepareServe(seed, drivers, serveCfg{keys: 2048, cache: 256, zipf: true, getFrac: 0.9})
			},
		},
		{
			name:      "serve_uniform_miss",
			why:       "same tier, uniform over 65536 keys, 100% GET (hit rate <1%): bypasses the cache so Call, age flush, shard action and continuation are the whole cost",
			rateAlias: "ops_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "op", payload: serveValueBytes,
			maxDrivers: 2,
			prepare: func(seed int64, drivers int) func() (instance, error) {
				return prepareServe(seed, drivers, serveCfg{keys: 65536, cache: 256, zipf: false, getFrac: 1})
			},
			// One GET miss: route, probe the cache, then two aggregated
			// one-way legs (request and reply), each ending in a delivery;
			// the reply completes a future.
			budget: []budgetTerm{
				{"serve.ring_owner_ns", 1}, {"serve.cache_hit_ns", 1},
				{"parcelport.agg_send_ns_per_msg", 2}, {"lci.put_ns", 2}, {"lci.cq_pop_ns", 2},
				{"core.deliver_1_ns", 2}, {"amt.future_set_get_ns", 1},
			},
		},
		{
			name:      "octotiger_4n",
			why:       "the paper's application on 4 localities: mixed eager/mid-size traffic plus a tree Reduce per step behind real compute; guards the application against a communication change",
			rateAlias: "steps_per_s", rateUnit: "1/s", rateScale: 1, latAlias: "step",
			maxDrivers: 1,
			prepare:    prepareOcto,
		},
	}
}

// warmFor is how long each set-up drives its workload before it hands the
// instance over. It is a time, not a count, so that setup_s is this constant
// plus the real cost of building, starting and preloading: a count would make
// setup_s a second, noisier throughput measurement.
var warmFor = 100 * time.Millisecond

// baseConfig is the common runtime configuration: the paper's best LCI
// parcelport on the Expanse fabric profile, 2 workers per locality, autotune
// and faults off.
func baseConfig(localities, rails int) core.Config {
	fab := bench.Expanse.Fabric(localities)
	fab.Rails = rails
	return core.Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Parcelport:         "lci_i",
		Fabric:             fab,
	}
}

// splitmix is the seeded word generator behind every payload and value: the
// checks recompute it instead of storing a copy of what was sent.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seededBytes returns n bytes of the splitmix sequence that starts at seed.
func seededBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		if i%8 == 0 {
			seed = splitmix(seed)
		}
		b[i] = byte(seed >> (8 * (i % 8)))
	}
	return b
}

// checkRuntime runs the checks every workload shares once it is drained: no
// message failed to decode and no Call is still waiting for its reply.
func checkRuntime(rt *core.Runtime) []string {
	var bad []string
	for i := 0; i < rt.Localities(); i++ {
		loc := rt.Locality(i)
		if n := loc.DecodeErrors(); n != 0 {
			bad = append(bad, fmt.Sprintf("locality %d: %d decode errors", i, n))
		}
		if n := loc.PendingContinuations(); n != 0 {
			bad = append(bad, fmt.Sprintf("locality %d: %d continuations still pending", i, n))
		}
	}
	return bad
}

// ---- pingpong_8b ----

type pingpong struct {
	rt       *core.Runtime
	echo     uint32
	payloads [][][]byte
	next     int
}

func preparePingpong(seed int64, _ int) func() (instance, error) {
	payloads := make([][][]byte, 4096)
	for i := range payloads {
		payloads[i] = [][]byte{seededBytes(8, uint64(seed)<<16+uint64(i))}
	}
	return func() (instance, error) {
		rt, err := core.NewRuntime(baseConfig(2, 2))
		if err != nil {
			return nil, err
		}
		p := &pingpong{rt: rt, payloads: payloads}
		p.echo = rt.MustRegisterAction("bm_echo", func(_ *core.Locality, args [][]byte) [][]byte { return args })
		if err := rt.Start(); err != nil {
			return nil, err
		}
		var s seg
		for start := time.Now(); time.Since(start) < warmFor; {
			p.roundTrip(&s, nil)
		}
		if s.failed > 0 {
			return nil, fmt.Errorf("pingpong warm-up: %d failed echoes", s.failed)
		}
		return p, nil
	}
}

func (p *pingpong) runtime() *core.Runtime { return p.rt }

// roundTrip is one closed-loop operation pair: the chain waits for the echo
// before the next call. It records RTT/2 twice (two one-way legs).
func (p *pingpong) roundTrip(s *seg, tr *tracer) {
	args := p.payloads[p.next%len(p.payloads)]
	p.next++
	t0 := nowNs()
	f := p.rt.Locality(0).CallID(1, p.echo, args)
	t1 := int64(0)
	if tr != nil {
		t1 = nowNs()
	}
	res, err := f.Get()
	t2 := nowNs()
	if err != nil || len(res) != 1 || !bytes.Equal(res[0], args[0]) {
		s.failed += 2
		return
	}
	half := int32((t2 - t0) / 2)
	s.lat = append(s.lat, half, half)
	s.ops += 2
	if tr != nil {
		op := tr.add(spanOp, t0, t2, tr.segment, uint32(p.next))
		tr.add(spanCallIssue, t0, t1, op, uint32(p.next))
		tr.add(spanCallWait, t1, t2, op, uint32(p.next))
	}
}

func (p *pingpong) drive(_ int, until time.Time, s *seg, tr *tracer) {
	start := time.Now()
	for time.Now().Before(until) {
		for i := 0; i < 8; i++ {
			p.roundTrip(s, tr)
		}
	}
	s.elapsed = time.Since(start)
}

func (p *pingpong) finish() []string { return checkRuntime(p.rt) }

// ---- flood_64b_agg, flood_64b_direct, xfer_1m_striped ----

// streamCfg shapes a credit-windowed one-way ApplyID stream.
type streamCfg struct {
	size        int  // payload bytes
	window      int  // parcels in flight before the sender blocks
	creditEvery int  // the receiver returns one credit per this many parcels
	agg         bool // sender-side aggregation
	rails       int
	inlineSink  bool // sink carries the inline hint
	pool        int  // distinct pre-generated payloads
	traceEvery  int  // one apply span per this many parcels when tracing
}

type credit struct {
	batch uint64 // credit index, counted by the receiver
	at    int64  // when the credit action ran on the sender
}

type stream struct {
	cfg     streamCfg
	rt      *core.Runtime
	sink    uint32
	args    [][][]byte
	digests []uint64

	received atomic.Uint64 // sink executions
	recvSum  atomic.Uint64 // sum of received payload digests
	badLen   atomic.Uint64
	credits  chan credit

	// Sender-only state.
	sent, sentSum, credited uint64
	sendAt                  []int64 // send time of each in-flight batch's last parcel
}

// digest sums at most 64 words of a payload, evenly spaced: a 64 B parcel is
// covered whole, a 1 MiB one at 64 positions, so that the check stays far
// below the transfer's own cost.
func digest(b []byte) uint64 {
	words := len(b) / 8
	step := 1
	if words > 64 {
		step = words / 64
	}
	var sum uint64
	for w := 0; w < words; w += step {
		sum += binary.LittleEndian.Uint64(b[w*8:])
	}
	return sum
}

func prepareStream(seed int64, cfg streamCfg) func() (instance, error) {
	args := make([][][]byte, cfg.pool)
	digests := make([]uint64, cfg.pool)
	for i := range args {
		b := seededBytes(cfg.size, uint64(seed)<<20+uint64(i))
		args[i] = [][]byte{b}
		digests[i] = digest(b)
	}
	return func() (instance, error) {
		c := baseConfig(2, cfg.rails)
		c.Aggregation = cfg.agg
		rt, err := core.NewRuntime(c)
		if err != nil {
			return nil, err
		}
		// The credit channel holds every credit the window can have in
		// flight, so the credit action never blocks.
		st := &stream{cfg: cfg, rt: rt, args: args, digests: digests,
			credits: make(chan credit, cfg.window/cfg.creditEvery+1),
			sendAt:  make([]int64, cfg.window/cfg.creditEvery+1)}
		creditID := rt.MustRegisterInlineAction("bm_credit", func(_ *core.Locality, a [][]byte) [][]byte {
			if len(a) == 1 && len(a[0]) == 8 {
				st.credits <- credit{batch: binary.LittleEndian.Uint64(a[0]), at: nowNs()}
			}
			return nil
		})
		sink := func(loc *core.Locality, a [][]byte) [][]byte {
			if len(a) != 1 || len(a[0]) != cfg.size {
				st.badLen.Add(1)
			} else {
				st.recvSum.Add(digest(a[0]))
			}
			if n := st.received.Add(1); n%uint64(cfg.creditEvery) == 0 {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], n/uint64(cfg.creditEvery)-1)
				_ = loc.ApplyID(0, creditID, [][]byte{b[:]})
			}
			return nil
		}
		if cfg.inlineSink {
			st.sink = rt.MustRegisterInlineAction("bm_sink", sink)
		} else {
			st.sink = rt.MustRegisterAction("bm_sink", sink)
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		var s seg
		for start := time.Now(); time.Since(start) < warmFor; {
			st.send(&s, nil)
		}
		if s.failed > 0 {
			return nil, fmt.Errorf("stream warm-up: %d apply errors", s.failed)
		}
		return st, nil
	}
}

func (st *stream) runtime() *core.Runtime { return st.rt }

// takeCredit books one returned credit and samples the completion latency of
// the parcel that triggered it: from its ApplyID to the credit action running
// back on the sender.
func (st *stream) takeCredit(c credit, s *seg) {
	st.credited += uint64(st.cfg.creditEvery)
	if at := st.sendAt[c.batch%uint64(len(st.sendAt))]; at != 0 {
		s.lat = append(s.lat, int32(c.at-at))
	}
}

// send applies one parcel, blocking first while the window is full. (A lost
// credit would block it for ever; main's watchdog ends the run then.)
func (st *stream) send(s *seg, tr *tracer) {
	for st.sent-st.credited >= uint64(st.cfg.window) {
		st.takeCredit(<-st.credits, s)
	}
	select {
	case c := <-st.credits:
		st.takeCredit(c, s)
	default:
	}
	k := st.sent % uint64(len(st.args))
	every := uint64(st.cfg.creditEvery)
	traced := tr != nil && st.sent%uint64(st.cfg.traceEvery) == 0
	var t0 int64
	if last := st.sent%every == every-1; last || traced {
		t0 = nowNs()
		if last {
			st.sendAt[(st.sent/every)%uint64(len(st.sendAt))] = t0
		}
	}
	if err := st.rt.Locality(0).ApplyID(1, st.sink, st.args[k]); err != nil {
		s.failed++
		return
	}
	if traced {
		tr.add(spanApply, t0, nowNs(), tr.segment, uint32(st.sent))
	}
	st.sent++
	st.sentSum += st.digests[k]
}

func (st *stream) drive(_ int, until time.Time, s *seg, tr *tracer) {
	start := time.Now()
	r0 := st.received.Load()
	for time.Now().Before(until) {
		for i := 0; i < st.cfg.creditEvery; i++ {
			st.send(s, tr)
		}
	}
	s.ops = int(st.received.Load() - r0)
	s.elapsed = time.Since(start)
}

// finish waits for the stream to drain, then asserts exactly-once delivery:
// the receiver executed as many parcels as the sender applied, the digests
// add up to the same sum, and the runtime's own counter agrees.
func (st *stream) finish() []string {
	var bad []string
	deadline := time.Now().Add(20 * time.Second)
	for st.received.Load() < st.sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := st.received.Load(); got != st.sent {
		bad = append(bad, fmt.Sprintf("receiver executed %d parcels, sender applied %d", got, st.sent))
	}
	if got := st.rt.Locality(1).ParcelsExecuted(); got != st.sent {
		bad = append(bad, fmt.Sprintf("runtime counted %d executed parcels, sender applied %d", got, st.sent))
	}
	if got := st.recvSum.Load(); got != st.sentSum {
		bad = append(bad, fmt.Sprintf("payload digest sum %#x, want %#x", got, st.sentSum))
	}
	if n := st.badLen.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d parcels with the wrong argument length", n))
	}
	return append(bad, checkRuntime(st.rt)...)
}

// ---- serve_zipf_rw, serve_uniform_miss ----

type serveCfg struct {
	keys    int
	cache   int
	zipf    bool
	getFrac float64
}

const (
	serveValueBytes = 64
	serveStreamLen  = 1 << 20 // pre-generated operations per driver, cycled
	servePutFlag    = 1 << 31
)

// serveDriver is one closed-loop client goroutine's private state.
type serveDriver struct {
	ops  []uint32 // key index, servePutFlag set for a PUT
	pos  int
	seq  uint64
	val  [serveValueBytes]byte
	mine []uint64 // last acknowledged write sequence per key this driver writes
	seen []uint64 // highest sequence observed per key other drivers write
}

type serveWL struct {
	cfg     serveCfg
	rt      *core.Runtime
	svc     *serve.Service
	client  *serve.Client
	keys    []string
	drivers []*serveDriver
}

// fillValue writes the value bound to (key, writer, seq): a header the
// reader checks against what it asked for and knows, then seeded filler.
func fillValue(b []byte, key uint32, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint32(b[0:], key)
	binary.LittleEndian.PutUint32(b[4:], writer)
	binary.LittleEndian.PutUint64(b[8:], seq)
	x := uint64(key)<<32 ^ seq
	for w := 16; w+8 <= len(b); w += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(b[w:], x)
	}
}

func prepareServe(seed int64, drivers int, cfg serveCfg) func() (instance, error) {
	keys := serve.KeySet(cfg.keys)
	streams := make([][]uint32, drivers)
	for d := range streams {
		rng := rand.New(rand.NewSource(seed*7919 + int64(d)))
		var zipf *rand.Zipf
		if cfg.zipf {
			zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.keys-1))
		}
		ops := make([]uint32, serveStreamLen)
		for i := range ops {
			var k uint32
			if zipf != nil {
				k = uint32(zipf.Uint64())
			} else {
				k = uint32(rng.Intn(cfg.keys))
			}
			if rng.Float64() >= cfg.getFrac {
				// Each key has one writer, so a reader can tell exactly which
				// value it must see: move the PUT to this driver's key of
				// the same popularity rank.
				k = k - k%uint32(drivers) + uint32(d)
				k |= servePutFlag
			}
			ops[i] = k
		}
		streams[d] = ops
	}
	return func() (instance, error) {
		c := baseConfig(3, 2)
		c.Parcelport = "lci"
		c.Aggregation = true
		rt, err := core.NewRuntime(c)
		if err != nil {
			return nil, err
		}
		// Locality 0 is client-only, so every miss is a remote shard call.
		svc, err := serve.New(rt, serve.Config{Owners: []int{1, 2}, CacheEntries: cfg.cache})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		var val [serveValueBytes]byte
		one := make([]string, 1)
		for k, key := range keys {
			fillValue(val[:], uint32(k), uint32(k%drivers), 0)
			one[0] = key
			svc.Preload(one, val[:])
		}
		w := &serveWL{cfg: cfg, rt: rt, svc: svc, client: svc.Client(0), keys: keys}
		for d := 0; d < drivers; d++ {
			w.drivers = append(w.drivers, &serveDriver{ops: streams[d], mine: make([]uint64, cfg.keys), seen: make([]uint64, cfg.keys)})
		}
		var s seg
		for d := range w.drivers {
			for start := time.Now(); time.Since(start) < warmFor/time.Duration(drivers); {
				w.op(d, &s, nil)
			}
		}
		if s.failed > 0 {
			return nil, fmt.Errorf("serve warm-up: %d failed operations", s.failed)
		}
		return w, nil
	}
}

func (w *serveWL) runtime() *core.Runtime { return w.rt }

func (w *serveWL) serveStats() serve.ClientStats { return w.client.Stats() }

// op issues driver d's next pre-generated operation and checks its result.
func (w *serveWL) op(d int, s *seg, tr *tracer) {
	dr := w.drivers[d]
	o := dr.ops[dr.pos%len(dr.ops)]
	dr.pos++
	k, put := o&^servePutFlag, o&servePutFlag != 0
	if put {
		dr.seq++
		fillValue(dr.val[:], k, uint32(d), dr.seq)
	}
	var before serve.ClientStats
	if tr != nil {
		before = w.client.Stats()
	}
	var val []byte
	var found bool
	var err error
	t0 := nowNs()
	if put {
		err = w.client.Put(w.keys[k], dr.val[:])
	} else {
		val, found, err = w.client.Get(w.keys[k])
	}
	t1 := nowNs()
	if tr != nil {
		tr.add(w.spanFor(put, before, t1-t0), t0, t1, tr.segment, uint32(dr.pos))
	}
	switch {
	case err != nil, !put && !(found && w.checkValue(d, k, val)):
		s.failed++
		return
	case put:
		dr.mine[k] = dr.seq
	}
	s.ops++
	s.lat = append(s.lat, int32(t1-t0))
}

// fillFloorNs is the least a GET that went to a shard can take: request and
// reply each cross the fabric, which the Expanse profile makes 1 us one way.
const fillFloorNs = 2000

// spanFor names the span of the call that just returned. The client's
// counters move when a GET starts and say which path it took: no fill in the
// window, a hit; no hit in it, a fill. The service has one Client per
// locality, so both drivers move the same counters, and when both kinds moved
// in the window the duration decides: below fillFloorNs no reply can have
// come back, so it was a hit. (What that can still mislabel is a hit that was
// preempted for microseconds while the other driver started a fill; the
// median does not see it.)
func (w *serveWL) spanFor(put bool, before serve.ClientStats, ns int64) spanName {
	if put {
		return spanPut
	}
	after := w.client.Stats()
	hits := after.CacheHits - before.CacheHits
	fills := after.ShardCalls - before.ShardCalls + after.Coalesced - before.Coalesced
	if fills == 0 || (hits != 0 && ns < fillFloorNs) {
		return spanGetHit
	}
	return spanGetMiss
}

// checkValue verifies a GET result: it is a value of the key asked for, its
// filler is intact, and its version is the one this driver last had
// acknowledged (own keys) or no older than the last one it saw (other keys).
func (w *serveWL) checkValue(d int, k uint32, val []byte) bool {
	if len(val) != serveValueBytes || binary.LittleEndian.Uint32(val[0:]) != k {
		return false
	}
	writer := binary.LittleEndian.Uint32(val[4:])
	seq := binary.LittleEndian.Uint64(val[8:])
	var want [serveValueBytes]byte
	fillValue(want[:], k, writer, seq)
	if !bytes.Equal(val, want[:]) {
		return false
	}
	dr := w.drivers[d]
	if int(k)%len(w.drivers) == d {
		return seq == dr.mine[k]
	}
	if seq < dr.seen[k] {
		return false
	}
	dr.seen[k] = seq
	return true
}

func (w *serveWL) drive(d int, until time.Time, s *seg, tr *tracer) {
	if d != 0 {
		tr = nil // one client traces, so the ring has a single writer
	}
	start := time.Now()
	for time.Now().Before(until) {
		for i := 0; i < 16; i++ {
			w.op(d, s, tr)
		}
	}
	s.elapsed = time.Since(start)
}

func (w *serveWL) finish() []string {
	bad := checkRuntime(w.rt)
	if st := w.svc.Stats(); st.Keys != w.cfg.keys {
		bad = append(bad, fmt.Sprintf("shards hold %d keys, want %d", st.Keys, w.cfg.keys))
	}
	return bad
}

// ---- octotiger_4n ----

// octoEnd is where an earlier instance of the run stopped: every instance
// starts from the same seed, so each one that reaches that step count must
// hold the same potential checksum. The instances replay one another.
type octoEnd struct {
	steps int
	sum   float64
}

type octo struct {
	rt   *core.Runtime
	app  *octotiger.App
	ends *[]octoEnd // shared by the instances of one run
	bad  []string
}

func prepareOcto(seed int64, _ int) func() (instance, error) {
	ends := new([]octoEnd)
	return func() (instance, error) {
		c := baseConfig(4, 2)
		c.IdleSleep = 20 * time.Microsecond
		rt, err := core.NewRuntime(c)
		if err != nil {
			return nil, err
		}
		app, err := octotiger.New(rt, octotiger.Params{MaxLevel: 3, MinLevel: 2, SubgridSize: 6, Fields: 4, Seed: uint64(seed)})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		o := &octo{rt: rt, app: app, ends: ends}
		for start := time.Now(); time.Since(start) < warmFor; {
			if err := o.step(); err != nil {
				return nil, err
			}
		}
		return o, nil
	}
}

func (o *octo) runtime() *core.Runtime { return o.rt }

// step advances the application and, at every step count where an earlier
// instance stopped, compares checksums with it.
func (o *octo) step() error {
	if err := o.app.Step(); err != nil {
		return err
	}
	for _, e := range *o.ends {
		if e.steps == o.app.Steps() {
			if got := o.app.PotentialChecksum(); got != e.sum {
				o.bad = append(o.bad, fmt.Sprintf("potential checksum %v after %d steps, an earlier instance had %v", got, e.steps, e.sum))
			}
		}
	}
	return nil
}

func (o *octo) drive(_ int, until time.Time, s *seg, tr *tracer) {
	start := time.Now()
	// At least one step per segment: a step can outlast a short segment, and
	// the next one must not come out empty.
	for first := true; first || time.Now().Before(until); first = false {
		t0 := nowNs()
		err := o.step()
		t1 := nowNs()
		if err != nil {
			s.failed++
			continue
		}
		s.ops++
		s.lat = append(s.lat, int32(t1-t0))
		if tr != nil {
			tr.add(spanStep, t0, t1, tr.segment, uint32(o.app.Steps()))
		}
	}
	if math.Abs(o.app.TotalMass()-o.app.InitialMass()) > 1e-9*o.app.InitialMass() {
		s.failed++
	}
	s.elapsed = time.Since(start)
}

// finish steps on, off the clock, to the furthest point an earlier instance
// reached, so that instance's final checksum is reproduced too, then leaves
// its own end point for the instances that follow.
func (o *octo) finish() []string {
	mine := octoEnd{o.app.Steps(), o.app.PotentialChecksum()}
	for _, e := range *o.ends {
		for o.app.Steps() < e.steps {
			if err := o.step(); err != nil {
				return append(o.bad, "replay: "+err.Error())
			}
		}
	}
	*o.ends = append(*o.ends, mine)
	return append(o.bad, checkRuntime(o.rt)...)
}
