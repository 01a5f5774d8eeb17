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
// speedup is quoted against. Its claims run in `make bench-claims`.

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
	res, err := rendezvousRounds([]RendezvousParams{p})
	if err != nil {
		return RendezvousResult{}, err
	}
	return res[0], nil
}

// rendezvousRig is one point's device pair and buffers, warmed up.
type rendezvousRig struct {
	p        RendezvousParams
	transfer func(fill byte) (time.Duration, error)
	times    []time.Duration
	mallocs  uint64
}

// newRendezvousRig builds one point's devices and runs its warm-up
// transfers.
func newRendezvousRig(p RendezvousParams) (*rendezvousRig, error) {
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
		return nil, err
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
			return nil, err
		}
	}
	return &rendezvousRig{p: p, transfer: transfer}, nil
}

// rendezvousRounds measures several points round-robin: every rig is built
// and warmed first, then each round times one transfer of every point, so
// drift of the host over the run lands on every point — and both sides of
// every ratio claim — alike. Each timed transfer is bracketed by its own
// MemStats reads, so a point's allocation count is its own.
func rendezvousRounds(ps []RendezvousParams) ([]RendezvousResult, error) {
	rigs := make([]*rendezvousRig, len(ps))
	reps := 0
	for i, p := range ps {
		rig, err := newRendezvousRig(p)
		if err != nil {
			return nil, err
		}
		rigs[i] = rig
		reps = max(reps, rig.p.Reps)
	}
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		// Settle the GC debt of setup and of the last round's blob
		// transfers (each allocates its payload afresh), so no cycle runs
		// beside a timed transfer.
		runtime.GC()
		for _, rig := range rigs {
			if r >= rig.p.Reps {
				continue
			}
			// One untimed transfer first: the previous rig's buffers have
			// pushed this one's out of cache, and a row times the warm
			// transfer, as when its reps ran back to back.
			if _, err := rig.transfer(byte(r + 51)); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms0)
			el, err := rig.transfer(byte(r + 101))
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, err
			}
			rig.times = append(rig.times, el)
			rig.mallocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	out := make([]RendezvousResult, len(rigs))
	for i, rig := range rigs {
		sort.Slice(rig.times, func(a, b int) bool { return rig.times[a] < rig.times[b] })
		median := rig.times[len(rig.times)/2]
		out[i] = RendezvousResult{
			NsOp:     float64(median.Nanoseconds()),
			AllocsOp: float64(rig.mallocs) / float64(len(rig.times)),
		}
		if out[i].NsOp > 0 {
			out[i].Gbps = float64(rig.p.Size) * 8 / out[i].NsOp // bits per ns == Gbit/s
		}
	}
	return out, nil
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

// measureRendezvous measures every row, round-robin (rendezvousRounds).
func measureRendezvous(sc Scale) ([]Record, error) {
	pts := rendezvousPoints(sc)
	ps := make([]RendezvousParams, len(pts))
	for i, pt := range pts {
		ps[i] = pt.p
	}
	res, err := rendezvousRounds(ps)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, len(pts))
	for i, pt := range pts {
		recs[i] = row(pt.op, "ns_op", res[i].NsOp, "gbps", res[i].Gbps, "allocs_op", res[i].AllocsOp)
	}
	return recs, nil
}
