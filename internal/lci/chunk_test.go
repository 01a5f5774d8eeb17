package lci

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// chunkFabric is the 2-node fabric the chunked-rendezvous tests run on:
// Expanse-like latency/bandwidth so the striping actually exercises the
// per-rail wire clocks.
func chunkFabric(rails int) fabric.Config {
	return fabric.Config{
		Nodes:               2,
		LatencyNs:           1000,
		GbitsPerSec:         100,
		Rails:               rails,
		PacketOverheadBytes: 64,
	}
}

// runLong performs one posted-first long transfer of payload from a to b
// into buf, driving both progress engines until the receive completes, and
// verifies the reassembled bytes.
func runLong(t *testing.T, a, b *Device, cq *CompQueue, payload, buf []byte, tag uint32) {
	t.Helper()
	if err := b.Recvl(0, tag, buf, cq, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := a.Sendl(1, tag, payload, nil, nil)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrRetry) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Sendl retried past deadline")
		}
		a.Progress()
		b.Progress()
	}
	progressUntil(t, 10*time.Second, func() bool {
		_, ok := cq.Pop()
		return ok
	}, a, b)
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatalf("reassembled payload differs (size %d)", len(payload))
	}
}

// TestChunkedRendezvousBasic: a 1 MiB rendezvous striped as 16 KiB chunks
// over 4 rails reassembles byte-identically.
func TestChunkedRendezvousBasic(t *testing.T) {
	a, b := pair(t, chunkFabric(4), Config{ChunkSize: 16 << 10})
	cq := NewCompQueue(16)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	buf := make([]byte, len(payload))
	runLong(t, a, b, cq, payload, buf, 3)
	if got := b.Stats().LongRecvd; got != 1 {
		t.Fatalf("LongRecvd = %d, want 1", got)
	}
}

// TestChunkedRendezvousProperty: randomized sizes (including non-multiples
// of the chunk size and single-chunk edge cases), chunk sizes, stripe
// widths and rail counts. Rails >= 2 make chunks genuinely arrive
// interleaved across rails, so this doubles as the reordering property
// test: reassembly is by offset and must not care about arrival order.
func TestChunkedRendezvousProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 24; trial++ {
		rails := []int{2, 3, 4, 8}[rng.Intn(4)]
		chunk := []int{4 << 10, 16 << 10, 64 << 10}[rng.Intn(3)]
		stripe := rng.Intn(rails + 2) // 0 = all rails; may exceed rail count (clamped)
		size := chunk + rng.Intn(8*chunk) + rng.Intn(1024)
		t.Run(fmt.Sprintf("trial%d_r%d_c%d_s%d_n%d", trial, rails, chunk, stripe, size), func(t *testing.T) {
			a, b := pair(t, chunkFabric(rails), Config{ChunkSize: chunk, StripeWidth: stripe})
			cq := NewCompQueue(16)
			payload := make([]byte, size)
			rng.Read(payload)
			buf := make([]byte, size)
			runLong(t, a, b, cq, payload, buf, uint32(trial))
		})
	}
}

// TestChunkedRendezvousChaos: seeded packet drops force the ARQ to
// retransmit chunks (and possibly the FIN); every transfer must still
// reassemble byte-identically and complete exactly once.
func TestChunkedRendezvousChaos(t *testing.T) {
	fcfg := chunkFabric(4)
	fcfg.Faults = fabric.FaultConfig{DropProb: 0.05, Seed: 42}
	fcfg.RetransmitTimeoutNs = 50_000
	a, b := pair(t, fcfg, Config{ChunkSize: 16 << 10})
	cq := NewCompQueue(16)
	const transfers = 8
	payload := make([]byte, 256<<10)
	buf := make([]byte, len(payload))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < transfers; i++ {
		rng.Read(payload)
		runLong(t, a, b, cq, payload, buf, uint32(i))
	}
	if got := b.Stats().LongRecvd; got != transfers {
		t.Fatalf("LongRecvd = %d, want exactly %d (exactly-once delivery)", got, transfers)
	}
	if _, ok := cq.Pop(); ok {
		t.Fatal("spurious extra completion in the queue")
	}
}

// TestLostCTSRetry: with MaxInflight 1 and the reverse rail already
// occupied, the CTS inject backpressures inside acceptRTS. The CTS must be
// parked and retried — before the fix it was silently dropped, deadlocking
// the rendezvous.
func TestLostCTSRetry(t *testing.T) {
	fcfg := chunkFabric(1)
	fcfg.MaxInflight = 1
	a, b := pair(t, fcfg, Config{ChunkSize: 16 << 10})
	cq := NewCompQueue(16)

	// Occupy the b→a rail so the CTS hits the inflight cap: a medium
	// message queued toward a counts against the rail until a polls it,
	// but a is not progressed until after b has handled the RTS.
	if err := b.Sendm(0, 99, []byte("filler"), nil, nil); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, len(payload))
	if err := b.Recvl(0, 5, buf, cq, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Sendl(1, 5, payload, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Let b accept the RTS while the reverse rail is still full: the CTS
	// inject must backpressure and park rather than vanish.
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CTS never hit backpressure; test setup no longer blocks the reverse rail")
		}
		b.Progress()
	}
	progressUntil(t, 10*time.Second, func() bool {
		_, ok := cq.Pop()
		return ok
	}, a, b)
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload mismatch after CTS retry")
	}
}

// TestLongHandlePressureInterleaved: more concurrent striped transfers than
// MaxLongHandles allows. Sendl reports ErrRetry under handle exhaustion
// (send handles now stay live until the remote FIN) and every transfer must
// still complete byte-identically.
func TestLongHandlePressureInterleaved(t *testing.T) {
	a, b := pair(t, chunkFabric(4), Config{ChunkSize: 16 << 10, MaxLongHandles: 2})
	cq := NewCompQueue(32)
	const transfers = 6
	payloads := make([][]byte, transfers)
	bufs := make([][]byte, transfers)
	rng := rand.New(rand.NewSource(11))
	for i := range payloads {
		payloads[i] = make([]byte, 96<<10)
		rng.Read(payloads[i])
		bufs[i] = make([]byte, len(payloads[i]))
		if err := b.Recvl(0, uint32(i), bufs[i], cq, nil); err != nil {
			t.Fatal(err)
		}
	}
	sent, sawRetry := 0, false
	deadline := time.Now().Add(10 * time.Second)
	for sent < transfers {
		err := a.Sendl(1, uint32(sent), payloads[sent], nil, nil)
		switch {
		case err == nil:
			sent++
		case errors.Is(err, ErrRetry):
			sawRetry = true
			a.Progress()
			b.Progress()
		default:
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled after %d sends", sent)
		}
	}
	if !sawRetry {
		t.Fatal("MaxLongHandles=2 never produced ErrRetry; pressure test is not exercising exhaustion")
	}
	done := 0
	progressUntil(t, 10*time.Second, func() bool {
		for {
			if _, ok := cq.Pop(); !ok {
				return done == transfers
			}
			done++
		}
	}, a, b)
	for i := range payloads {
		if !bytes.Equal(bufs[i], payloads[i]) {
			t.Fatalf("transfer %d corrupted under handle pressure", i)
		}
	}
}

// TestChunkedZeroAllocSteadyState is the alloc-gate row for the striped
// rendezvous datapath: once pools are warm, a full 64 KiB chunked transfer
// cycle (post, RTS/CTS, striped zero-copy chunks, FIN, completion) performs
// zero heap allocations.
func TestChunkedZeroAllocSteadyState(t *testing.T) {
	a, b := pair(t, chunkFabric(4), Config{ChunkSize: 16 << 10})
	cq := NewCompQueue(16)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	buf := make([]byte, len(payload))
	xfer := func() {
		if err := b.Recvl(0, 1, buf, cq, nil); err != nil {
			t.Fatal(err)
		}
		for {
			err := a.Sendl(1, 1, payload, nil, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrRetry) {
				t.Fatal(err)
			}
			a.Progress()
		}
		for {
			if _, ok := cq.Pop(); ok {
				break
			}
			a.Progress()
			b.Progress()
		}
	}
	for i := 0; i < 10; i++ {
		xfer() // warm every pool: packets, handles, posted-recv ring, waves
	}
	if avg := testing.AllocsPerRun(50, xfer); avg != 0 {
		t.Fatalf("steady-state chunked rendezvous allocates %.2f allocs/op, want 0", avg)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload mismatch")
	}
}

// FuzzChunkedReassembly fuzzes the reassembly parameters: any (size, chunk,
// stripe, rails) combination must reassemble byte-identically.
func FuzzChunkedReassembly(f *testing.F) {
	f.Add(uint32(1<<20), uint32(64<<10), uint8(0), uint8(4), int64(1))
	f.Add(uint32(100_000), uint32(4<<10), uint8(2), uint8(3), int64(9))
	f.Add(uint32(17), uint32(1<<10), uint8(1), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, size, chunk uint32, stripe, rails uint8, seed int64) {
		size = size%(2<<20) + 1
		chunk = chunk%(256<<10) + 512
		r := int(rails)%8 + 1
		fcfg := chunkFabric(r)
		net, err := fabric.NewNetwork(fcfg)
		if err != nil {
			t.Skip()
		}
		cfg := Config{ChunkSize: int(chunk), StripeWidth: int(stripe) % (r + 1)}
		a := NewDevice(net.Device(0), cfg, nil)
		b := NewDevice(net.Device(1), cfg, nil)
		cq := NewCompQueue(16)
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)
		buf := make([]byte, size)
		if err := b.Recvl(0, 1, buf, cq, nil); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := a.Sendl(1, 1, payload, nil, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrRetry) || time.Now().After(deadline) {
				t.Fatal(err)
			}
			a.Progress()
			b.Progress()
		}
		for {
			if _, ok := cq.Pop(); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("transfer did not complete")
			}
			a.Progress()
			b.Progress()
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("reassembly mismatch: size=%d chunk=%d stripe=%d rails=%d", size, chunk, stripe, r)
		}
	})
}

// TestChunkPlanStripe: chunkPlan hands the datapath exactly the configured
// stripe width; zero and an over-wide value resolve to the rail count once,
// in NewDevice.
func TestChunkPlanStripe(t *testing.T) {
	const rails, chunk = 4, 16 << 10
	for stripe, want := range map[int]int{0: rails, 1: 1, 2: 2, 3: 3, 4: rails, 9: rails} {
		a, _ := pair(t, chunkFabric(rails), Config{ChunkSize: chunk, StripeWidth: stripe})
		if cs, sw := a.chunkPlan(8 * chunk); cs != chunk || sw != want {
			t.Errorf("StripeWidth %d: chunkPlan = (%d, %d), want (%d, %d)", stripe, cs, sw, chunk, want)
		}
	}
}

// TestStripeWidthReachesChunkPlan: Config.StripeWidth decides how many rails
// a rendezvous transfer uses on the wire. The fabric serializes each rail at
// GbitsPerSec, so a 1 MiB payload confined to w of 4 slow rails cannot land
// before size/(w×bandwidth) whatever the host speed, while a stripe the
// datapath ignored would spread over all 4 rails and land in a quarter of the
// one-rail time. Only lower bounds are asserted, so a slow host cannot fail
// the test; TestChunkPlanStripe covers chunkPlan's half.
func TestStripeWidthReachesChunkPlan(t *testing.T) {
	const (
		size    = 1 << 20
		gbps    = 0.2
		oneRail = time.Duration(size * 8 / gbps) // ns: Gbit/s == bit/ns
	)
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			a, b := pair(t, fabric.Config{LatencyNs: 1000, GbitsPerSec: gbps, Rails: 4}, Config{StripeWidth: width})
			payload := make([]byte, size)
			start := time.Now()
			runLong(t, a, b, NewCompQueue(16), payload, make([]byte, size), 7)
			wire := oneRail / time.Duration(width)
			if got := time.Since(start); got < wire*95/100 {
				t.Fatalf("1 MiB on %d of 4 rails landed in %v, under the %v wire time: more rails were used", width, got, wire)
			}
		})
	}
}
