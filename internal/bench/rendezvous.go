package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
)

// Large-message rendezvous bandwidth: the chunked, multi-rail-striped long
// path measured against the monolithic single-blob baseline it replaced.
// The single-blob path is kept in the device (Config.SingleBlobLong) as the
// oracle: every measured transfer is byte-compared against the payload, and
// the artifact's blob rows are the before/after reference the striping
// speedup is quoted against. Committed as results/BENCH_rendezvous.json and
// re-checked by `make bench-gate`.

// RendezvousParams configures one large-message bandwidth point between two
// devices on an Expanse-profile fabric with a configurable rail count.
type RendezvousParams struct {
	Size       int  // payload bytes
	Rails      int  // fabric rails
	ChunkSize  int  // 0 = device default (64 KiB)
	Stripe     int  // stripe width; 0 = all rails
	SingleBlob bool // monolithic opLongData baseline (the oracle)
	Reps       int  // timed transfers; the median is reported
	Warmup     int  // untimed warm-up transfers (pools, map capacity)
}

// RendezvousResult is one measured point. The median rep is reported rather
// than the minimum: the blob baseline's per-transfer cost is dominated by
// fresh multi-MiB allocations (the packet pool only recycles payloads up to
// 64 KiB), whose page-fault cost swings ~3x between reps — a minimum would
// quote the baseline's luckiest rep and make the speedup ratio unstable.
type RendezvousResult struct {
	NsOp     float64 // median-rep wall ns per transfer (post → completion)
	Gbps     float64 // payload bandwidth at NsOp, gigabits/second
	AllocsOp float64 // process-wide mallocs per transfer, timed reps only
}

// Rendezvous measures one point: two lci devices on a 2-node fabric with
// the platform's latency/bandwidth model, a single benchmark goroutine
// driving both progress engines (fabric arrival gating means simulated wire
// time, not host scheduling, dominates). Every transfer is verified
// byte-identical against the payload.
func Rendezvous(p RendezvousParams) (RendezvousResult, error) {
	if p.Size <= 0 {
		p.Size = 1 << 20
	}
	if p.Rails <= 0 {
		p.Rails = 2
	}
	if p.Reps <= 0 {
		p.Reps = 5
	}
	if p.Warmup <= 0 {
		p.Warmup = 8 // enough transfers to fill every pool to steady state
	}
	net, err := fabric.NewNetwork(fabric.Config{
		Nodes:               2,
		LatencyNs:           Expanse.LatencyNs,
		GbitsPerSec:         Expanse.GbitsPerSec,
		Rails:               p.Rails,
		PacketOverheadBytes: 64,
	})
	if err != nil {
		return RendezvousResult{}, err
	}
	lcfg := lci.Config{ChunkSize: p.ChunkSize, StripeWidth: p.Stripe, SingleBlobLong: p.SingleBlob}
	snd := lci.NewDevice(net.Device(0), lcfg, nil)
	rcv := lci.NewDevice(net.Device(1), lcfg, nil)
	cq := lci.NewCompQueue(64)
	payload := make([]byte, p.Size)
	buf := make([]byte, p.Size)

	transfer := func(fill byte) (time.Duration, error) {
		for i := range payload {
			payload[i] = fill + byte(i)
		}
		t0 := time.Now()
		if err := rcv.Recvl(0, 1, buf, cq, nil); err != nil {
			return 0, fmt.Errorf("Recvl: %w", err)
		}
		for {
			err := snd.Sendl(1, 1, payload, nil, nil)
			if err == nil {
				break
			}
			if err != lci.ErrRetry {
				return 0, fmt.Errorf("Sendl: %w", err)
			}
			snd.Progress()
		}
		var cqBuf [1]lci.Request
		for cq.PopN(cqBuf[:]) == 0 {
			snd.Progress()
			rcv.Progress()
		}
		elapsed := time.Since(t0)
		if !bytes.Equal(buf, payload) {
			return 0, fmt.Errorf("rendezvous payload mismatch (size %d, rails %d, chunk %d, stripe %d)",
				p.Size, p.Rails, p.ChunkSize, p.Stripe)
		}
		return elapsed, nil
	}

	for w := 0; w < p.Warmup; w++ {
		if _, err := transfer(byte(w)); err != nil {
			return RendezvousResult{}, err
		}
	}
	durations := make([]time.Duration, 0, p.Reps)
	runtime.GC() // settle GC debt from setup so no cycle fires mid-bracket
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < p.Reps; r++ {
		el, err := transfer(byte(r + 101))
		if err != nil {
			return RendezvousResult{}, err
		}
		durations = append(durations, el)
	}
	runtime.ReadMemStats(&ms1)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	median := durations[len(durations)/2]
	res := RendezvousResult{
		NsOp:     float64(median.Nanoseconds()),
		AllocsOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(p.Reps),
	}
	if res.NsOp > 0 {
		res.Gbps = float64(p.Size) * 8 / res.NsOp // bits per ns == Gbit/s
	}
	return res, nil
}

// Row names the rendezvous claims reference.
const (
	rendBlobR1 = "rendezvous/blob/1MiB/r1"
	rendBlobR4 = "rendezvous/blob/1MiB/r4"
	rendC64KR1 = "rendezvous/c64K/1MiB/r1"
	rendC64KR4 = "rendezvous/c64K/1MiB/r4"
)

// rendezvousPoints enumerates the artifact rows: the 1 MiB size × rails
// sweep against the blob baseline, plus a chunk-size sweep at 4 rails.
func rendezvousPoints(sc Scale) []point[RendezvousParams] {
	const mib = 1 << 20
	reps := max(sc.Reps, 5)
	return []point[RendezvousParams]{
		{rendBlobR1, RendezvousParams{Size: mib, Rails: 1, SingleBlob: true, Reps: reps}},
		{rendBlobR4, RendezvousParams{Size: mib, Rails: 4, SingleBlob: true, Reps: reps}},
		{rendC64KR1, RendezvousParams{Size: mib, Rails: 1, Reps: reps}},
		{"rendezvous/c64K/1MiB/r2", RendezvousParams{Size: mib, Rails: 2, Reps: reps}},
		{rendC64KR4, RendezvousParams{Size: mib, Rails: 4, Reps: reps}},
		{"rendezvous/c64K/1MiB/r8", RendezvousParams{Size: mib, Rails: 8, Reps: reps}},
		{"rendezvous/c16K/1MiB/r4", RendezvousParams{Size: mib, Rails: 4, ChunkSize: 16 << 10, Reps: reps}},
		{"rendezvous/c256K/1MiB/r4", RendezvousParams{Size: mib, Rails: 4, ChunkSize: 256 << 10, Reps: reps}},
		{"rendezvous/c64K/256KiB/r4", RendezvousParams{Size: 256 << 10, Rails: 4, Reps: reps}},
	}
}

// measureRendezvous measures every row.
func measureRendezvous(sc Scale) ([]Record, error) {
	var recs []Record
	for _, pt := range rendezvousPoints(sc) {
		res, err := Rendezvous(pt.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.op, err)
		}
		recs = append(recs, row(pt.op, "ns_op", res.NsOp, "gbps", res.Gbps, "allocs_op", res.AllocsOp))
	}
	return recs, nil
}
