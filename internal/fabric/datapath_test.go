package fabric

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// drainOne polls until a packet arrives or the deadline passes.
func drainOne(t *testing.T, d *Device) *Packet {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p := d.Poll(); p != nil {
			return p
		}
	}
	t.Fatal("timed out waiting for a packet")
	return nil
}

// TestRailRingWraparound drives a tiny ring through many laps and checks
// per-rail FIFO survives the sequence-counter wraparound of slots.
func TestRailRingWraparound(t *testing.T) {
	n, err := NewNetwork(Config{Nodes: 2, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Device(0), n.Device(1)
	next := uint64(0)
	for round := 0; round < 100; round++ {
		for k := 0; k < 4; k++ {
			if err := src.Inject(Packet{Dst: 1, T0: uint64(round*4 + k)}); err != nil {
				t.Fatalf("round %d inject %d: %v", round, k, err)
			}
		}
		for k := 0; k < 4; k++ {
			p := drainOne(t, dst)
			if p.T0 != next {
				t.Fatalf("FIFO violation: got T0=%d want %d", p.T0, next)
			}
			next++
			p.Release()
		}
	}
}

// TestBackpressureBoundary checks the MaxInflight cap is exact: the cap-th
// inject succeeds, cap+1 fails, and popping one packet reopens the rail.
func TestBackpressureBoundary(t *testing.T) {
	const cap = 3
	n, err := NewNetwork(Config{Nodes: 2, MaxInflight: cap})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Device(0), n.Device(1)
	for i := 0; i < cap; i++ {
		if err := src.Inject(Packet{Dst: 1, T0: uint64(i)}); err != nil {
			t.Fatalf("inject %d within cap: %v", i, err)
		}
	}
	if err := src.Inject(Packet{Dst: 1}); err != ErrBackpressure {
		t.Fatalf("inject beyond cap: got %v, want ErrBackpressure", err)
	}
	drainOne(t, dst).Release()
	if err := src.Inject(Packet{Dst: 1, T0: cap}); err != nil {
		t.Fatalf("inject after drain: %v", err)
	}
	for i := 1; i <= cap; i++ {
		p := drainOne(t, dst)
		if p.T0 != uint64(i) {
			t.Fatalf("got T0=%d want %d", p.T0, i)
		}
		p.Release()
	}
}

// TestOverflowSpill floods one rail far past the ring capacity with no
// MaxInflight cap: the burst must spill to the overflow list and drain back
// out in FIFO order.
func TestOverflowSpill(t *testing.T) {
	const total = defaultRailSlots*2 + 57
	n, err := NewNetwork(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Device(0), n.Device(1)
	for i := 0; i < total; i++ {
		if err := src.Inject(Packet{Dst: 1, T0: uint64(i)}); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
	for i := 0; i < total; i++ {
		p := drainOne(t, dst)
		if p.T0 != uint64(i) {
			t.Fatalf("overflow FIFO violation at %d: got T0=%d", i, p.T0)
		}
		p.Release()
	}
	if dst.Poll() != nil || dst.Pending() {
		t.Fatal("packets left after full drain")
	}
}

// TestConcurrentInjectPollRing hammers one device from many injector
// goroutines while many pollers drain it concurrently (run under -race).
// Every injected packet must be delivered exactly once.
func TestConcurrentInjectPollRing(t *testing.T) {
	const (
		senders   = 4
		pollers   = 4
		perSender = 2000
	)
	n, err := NewNetwork(Config{Nodes: senders + 1, Rails: 2})
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Device(0)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := n.Device(s)
			for i := 0; i < perSender; i++ {
				for {
					if err := src.Inject(Packet{Dst: 0, T0: uint64(i)}); err == nil {
						break
					}
					runtime.Gosched() // backpressured: let a poller drain
				}
			}
		}(s)
	}
	var mu sync.Mutex
	seen := make(map[[2]uint64]int)
	var pwg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < pollers; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				p := dst.Poll()
				if p == nil {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched() // empty: let an injector run
						continue
					}
				}
				key := [2]uint64{uint64(p.Src), p.T0}
				mu.Lock()
				seen[key]++
				mu.Unlock()
				p.Release()
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		if got == senders*perSender || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	pwg.Wait()
	if len(seen) != senders*perSender {
		t.Fatalf("delivered %d distinct messages within the deadline, want %d", len(seen), senders*perSender)
	}
	for key, count := range seen {
		if count != 1 {
			t.Fatalf("message %v delivered %d times", key, count)
		}
	}
}

// TestInjectBatchRuns checks batch injection preserves order, amortizes
// same-destination runs, and reports partial progress on backpressure.
func TestInjectBatchRuns(t *testing.T) {
	n, err := NewNetwork(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := n.Device(0)
	batch := make([]Packet, 0, 40)
	for i := 0; i < 40; i++ {
		batch = append(batch, Packet{Dst: 1 + i/20, T0: uint64(i)})
	}
	done, err := src.InjectBatch(batch)
	if err != nil || done != len(batch) {
		t.Fatalf("InjectBatch = (%d, %v), want (%d, nil)", done, err, len(batch))
	}
	for dev := 1; dev <= 2; dev++ {
		base := uint64((dev - 1) * 20)
		for k := 0; k < 20; k++ {
			p := drainOne(t, n.Device(dev))
			if p.T0 != base+uint64(k) {
				t.Fatalf("dev %d: got T0=%d want %d", dev, p.T0, base+uint64(k))
			}
			p.Release()
		}
	}
}

func TestInjectBatchBackpressure(t *testing.T) {
	n, err := NewNetwork(Config{Nodes: 2, MaxInflight: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Device(0), n.Device(1)
	batch := make([]Packet, 8)
	for i := range batch {
		batch[i] = Packet{Dst: 1, T0: uint64(i)}
	}
	done, err := src.InjectBatch(batch)
	if err != ErrBackpressure || done != 5 {
		t.Fatalf("InjectBatch = (%d, %v), want (5, ErrBackpressure)", done, err)
	}
	for i := 0; i < done; i++ {
		p := drainOne(t, dst)
		if p.T0 != uint64(i) {
			t.Fatalf("got T0=%d want %d", p.T0, i)
		}
		p.Release()
	}
	done2, err := src.InjectBatch(batch[done:])
	if err != nil || done2 != 3 {
		t.Fatalf("retry InjectBatch = (%d, %v), want (3, nil)", done2, err)
	}
	for i := done; i < len(batch); i++ {
		drainOne(t, dst).Release()
	}
}

// TestDoubleReleasePanics: releasing a pooled packet twice must panic rather
// than silently corrupt the freelist.
func TestDoubleReleasePanics(t *testing.T) {
	n, err := NewNetwork(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Device(0).Inject(Packet{Dst: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	p := drainOne(t, n.Device(1))
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	p.Release()
}

// TestReleaseProtocolBalanced soaks the full ARQ (drops, dups, corruption,
// spikes, retransmits, standalone acks) and asserts that once the network is
// quiescent every pool packet handed out was released back: Gets == Puts on
// every device, i.e. no leaks and no double frees anywhere in the datapath.
func TestReleaseProtocolBalanced(t *testing.T) {
	const nodes = 3
	n, err := NewNetwork(Config{
		Nodes: nodes,
		Faults: FaultConfig{
			Seed:        42,
			DropProb:    0.10,
			DupProb:     0.05,
			CorruptProb: 0.05,
			SpikeProb:   0.05,
			SpikeNs:     20_000,
		},
		RetransmitTimeoutNs: 100_000,
		AckDelayNs:          30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All-to-all chatter.
	for round := 0; round < 200; round++ {
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if s == d {
					continue
				}
				_ = n.Device(s).Inject(Packet{Dst: d, T0: uint64(round), Data: []byte{byte(round), byte(s)}})
			}
		}
		for d := 0; d < nodes; d++ {
			for {
				p := n.Device(d).Poll()
				if p == nil {
					break
				}
				p.Release()
			}
		}
	}
	// Drain to quiescence: no queued packets, no unacked windows, and several
	// consecutive empty polls everywhere (lets retransmit and ack timers run
	// out naturally).
	deadline := time.Now().Add(20 * time.Second)
	idleRounds := 0
	for idleRounds < 50 {
		if time.Now().After(deadline) {
			t.Fatal("network did not quiesce")
		}
		idle := true
		for d := 0; d < nodes; d++ {
			dev := n.Device(d)
			for {
				p := dev.Poll()
				if p == nil {
					break
				}
				idle = false
				p.Release()
			}
			if dev.Pending() {
				idle = false
			}
			for dst := 0; dst < nodes; dst++ {
				if dst != d && dev.rel.unackedTo(dst) > 0 {
					idle = false
				}
			}
		}
		if idle {
			idleRounds++
		} else {
			idleRounds = 0
		}
		time.Sleep(time.Millisecond)
	}
	for d := 0; d < nodes; d++ {
		ps := n.Device(d).PoolStats()
		if ps.Gets != ps.Puts {
			t.Errorf("device %d pool unbalanced: gets=%d puts=%d (allocs=%d drops=%d)",
				d, ps.Gets, ps.Puts, ps.Allocs, ps.Drops)
		}
		if ps.Gets == 0 {
			t.Errorf("device %d pool unused: the soak should exercise it", d)
		}
	}
}

// TestInjectPollReleaseZeroAllocs is the steady-state allocation gate from
// the perf work: once the pool and ring are warm, one eager
// inject → poll → release cycle performs zero heap allocations, with
// reliability framing off and on (lossless ARQ).
func TestInjectPollReleaseZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Nodes: 2}},
		{"lossless-rel", Config{Nodes: 2, Reliability: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNetwork(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, dst := n.Device(0), n.Device(1)
			payload := make([]byte, 64)
			cycle := func() {
				if err := src.Inject(Packet{Dst: 1, Data: payload}); err != nil {
					t.Fatal(err)
				}
				var p *Packet
				for p == nil {
					p = dst.Poll()
				}
				p.Release()
			}
			for i := 0; i < 200; i++ {
				cycle() // warm the pool, the rail ring and the ready index
			}
			if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
				t.Fatalf("inject→poll→release allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestPollCostClusterSizeIndependent is the functional form of
// BenchmarkPollManyNodes: with one active peer, per-poll work must not grow
// with the number of idle nodes (the ready index replaces the full scan).
func TestPollCostClusterSizeIndependent(t *testing.T) {
	measure := func(nodes int) time.Duration {
		n, err := NewNetwork(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		src, dst := n.Device(1), n.Device(0)
		payload := make([]byte, 64)
		const iters = 20000
		// Warm up.
		for i := 0; i < 1000; i++ {
			_ = src.Inject(Packet{Dst: 0, Data: payload})
			for {
				if p := dst.Poll(); p != nil {
					p.Release()
					break
				}
			}
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			_ = src.Inject(Packet{Dst: 0, Data: payload})
			for {
				if p := dst.Poll(); p != nil {
					p.Release()
					break
				}
			}
		}
		return time.Since(start) / iters
	}
	small := measure(2)
	large := measure(64)
	// Allow generous scheduling noise; the pre-ready-index scan cost ~4x
	// from 2 to 64 nodes, the index must stay well under 2x.
	if large > small*2 && large-small > 2*time.Microsecond {
		t.Fatalf("poll cost grew with cluster size: %v at 2 nodes vs %v at 64", small, large)
	}
}
