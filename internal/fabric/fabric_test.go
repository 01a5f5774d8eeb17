package fabric

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

// pollWait polls d until a packet arrives or the deadline passes.
func pollWait(t *testing.T, d *Device, timeout time.Duration) *Packet {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p := d.Poll(); p != nil {
			return p
		}
	}
	t.Fatalf("no packet arrived within %v", timeout)
	return nil
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := NewNetwork(Config{Nodes: -3}); err == nil {
		t.Fatal("expected error for negative nodes")
	}
	n := mustNet(t, Config{Nodes: 2}) // Rails defaults to 1
	if got := n.Config().Rails; got != 1 {
		t.Fatalf("Rails default = %d, want 1", got)
	}
}

func TestBasicDelivery(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2, LatencyNs: 100})
	src, dst := n.Device(0), n.Device(1)
	payload := []byte("hello fabric")
	if err := src.Inject(Packet{Dst: 1, Op: 7, T0: 42, T1: 43, Data: payload}); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	p := pollWait(t, dst, time.Second)
	if p.Src != 0 || p.Dst != 1 || p.Op != 7 || p.T0 != 42 || p.T1 != 43 {
		t.Fatalf("bad header: %+v", p)
	}
	if !bytes.Equal(p.Data, payload) {
		t.Fatalf("payload mismatch: %q", p.Data)
	}
	if q := dst.Poll(); q != nil {
		t.Fatalf("unexpected extra packet: %+v", q)
	}
}

func TestInjectCopiesPayload(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2})
	buf := []byte{1, 2, 3, 4}
	if err := n.Device(0).Inject(Packet{Dst: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate after injection: the fabric must have its own copy
	p := pollWait(t, n.Device(1), time.Second)
	if p.Data[0] != 1 {
		t.Fatalf("fabric aliased the caller's buffer: %v", p.Data)
	}
}

func TestInvalidDestination(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2})
	if err := n.Device(0).Inject(Packet{Dst: 5}); err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	if err := n.Device(0).Inject(Packet{Dst: -1}); err == nil {
		t.Fatal("expected error for negative destination")
	}
}

func TestLatencyHidesPacket(t *testing.T) {
	// With a large latency, an immediate poll must not see the packet.
	n := mustNet(t, Config{Nodes: 2, LatencyNs: int64(50 * time.Millisecond)})
	if err := n.Device(0).Inject(Packet{Dst: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if p := n.Device(1).Poll(); p != nil {
		t.Fatal("packet visible before its latency elapsed")
	}
	if !n.Device(1).Pending() {
		t.Fatal("Pending should report the queued packet")
	}
	p := pollWait(t, n.Device(1), time.Second)
	if string(p.Data) != "x" {
		t.Fatalf("bad payload %q", p.Data)
	}
}

func TestSingleRailFIFO(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2, LatencyNs: 1000, Rails: 1})
	src, dst := n.Device(0), n.Device(1)
	const k = 100
	for i := 0; i < k; i++ {
		if err := src.Inject(Packet{Dst: 1, T0: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		p := pollWait(t, dst, time.Second)
		if p.T0 != uint64(i) {
			t.Fatalf("out-of-order delivery on single rail: got %d want %d", p.T0, i)
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two large packets on a slow link: the second must arrive measurably
	// after the first (transmission times accumulate on the rail).
	cfg := Config{Nodes: 2, LatencyNs: 0, GbitsPerSec: 1} // 1 bit/ns
	n := mustNet(t, cfg)
	payload := make([]byte, 125000) // 1e6 bits => 1ms at 1 Gb/s
	for i := 0; i < 2; i++ {
		if err := n.Device(0).Inject(Packet{Dst: 1, T0: uint64(i), Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	p1 := pollWait(t, n.Device(1), 2*time.Second)
	p2 := pollWait(t, n.Device(1), 2*time.Second)
	gap := p2.ArrivedAtNs() - p1.ArrivedAtNs()
	want := n.xmitNs(len(payload))
	if gap < want {
		t.Fatalf("second packet arrived %dns after first, want >= %dns", gap, want)
	}
}

func TestZeroBandwidthMeansInstant(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2, GbitsPerSec: 0})
	if got := n.xmitNs(1 << 20); got != 0 {
		t.Fatalf("xmitNs with zero bandwidth = %d, want 0", got)
	}
}

func TestMultiRailCanReorder(t *testing.T) {
	// Saturate rail 0 with a huge packet, then send a small one that lands on
	// rail 1; the small one must overtake it.
	cfg := Config{Nodes: 2, LatencyNs: 0, GbitsPerSec: 1, Rails: 2}
	n := mustNet(t, cfg)
	big := make([]byte, 1<<20)
	if err := n.Device(0).Inject(Packet{Dst: 1, T0: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	if err := n.Device(0).Inject(Packet{Dst: 1, T0: 2, Data: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	p := pollWait(t, n.Device(1), 5*time.Second)
	if p.T0 != 2 {
		t.Fatalf("expected small packet to overtake on the second rail, got T0=%d", p.T0)
	}
	p = pollWait(t, n.Device(1), 5*time.Second)
	if p.T0 != 1 {
		t.Fatalf("expected big packet second, got T0=%d", p.T0)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := Config{Nodes: 2, LatencyNs: int64(time.Hour), MaxInflight: 4}
	n := mustNet(t, cfg)
	var errs int
	for i := 0; i < 10; i++ {
		if err := n.Device(0).Inject(Packet{Dst: 1}); err != nil {
			if err != ErrBackpressure {
				t.Fatalf("unexpected error: %v", err)
			}
			errs++
		}
	}
	if errs != 6 {
		t.Fatalf("got %d backpressure errors, want 6", errs)
	}
	if got := n.Device(0).Stats().Backpressured; got != 6 {
		t.Fatalf("Backpressured counter = %d, want 6", got)
	}
}

func TestStatsCounters(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2})
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := n.Device(0).Inject(Packet{Dst: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		pollWait(t, n.Device(1), time.Second)
	}
	s0, s1 := n.Device(0).Stats(), n.Device(1).Stats()
	if s0.InjectedPackets != 5 || s0.InjectedBytes != 500 {
		t.Fatalf("sender stats: %+v", s0)
	}
	if s1.DeliveredPackets != 5 || s1.DeliveredBytes != 500 {
		t.Fatalf("receiver stats: %+v", s1)
	}
}

func TestSelfSend(t *testing.T) {
	// Loopback (node sending to itself) must work: localities on the same
	// node still route through the device in some configurations.
	n := mustNet(t, Config{Nodes: 1, LatencyNs: 10})
	if err := n.Device(0).Inject(Packet{Dst: 0, Data: []byte("loop")}); err != nil {
		t.Fatal(err)
	}
	p := pollWait(t, n.Device(0), time.Second)
	if string(p.Data) != "loop" {
		t.Fatalf("bad loopback payload %q", p.Data)
	}
}

func TestConcurrentInjectPoll(t *testing.T) {
	// Hammer one device from several goroutines while several pollers drain.
	// Verifies no packets are lost or duplicated under concurrency.
	n := mustNet(t, Config{Nodes: 4, LatencyNs: 100, Rails: 2})
	const senders, perSender = 4, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := n.Device(s % 3) // nodes 0..2 send to node 3
			for i := 0; i < perSender; i++ {
				for {
					if err := src.Inject(Packet{Dst: 3, T0: uint64(s*perSender + i)}); err == nil {
						break
					}
				}
			}
		}(s)
	}
	seen := make(map[uint64]bool)
	var seenMu sync.Mutex
	var pollers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				p := n.Device(3).Poll()
				if p != nil {
					seenMu.Lock()
					if seen[p.T0] {
						t.Errorf("duplicate packet %d", p.T0)
					}
					seen[p.T0] = true
					seenMu.Unlock()
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		seenMu.Lock()
		done := len(seen) == senders*perSender
		seenMu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	pollers.Wait()
	if len(seen) != senders*perSender {
		t.Fatalf("delivered %d packets, want %d", len(seen), senders*perSender)
	}
}

func TestPayloadRoundTripProperty(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2, LatencyNs: 0})
	f := func(data []byte, op uint8, t0, t1 uint64) bool {
		if err := n.Device(0).Inject(Packet{Dst: 1, Op: op, T0: t0, T1: t1, Data: data}); err != nil {
			return false
		}
		var p *Packet
		deadline := time.Now().Add(time.Second)
		for p == nil && time.Now().Before(deadline) {
			p = n.Device(1).Poll()
		}
		if p == nil {
			return false
		}
		return p.Op == op && p.T0 == t0 && p.T1 == t1 && bytes.Equal(p.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDeviceLanes(t *testing.T) {
	// Device i of a node delivers only to device i of the destination:
	// replicated contexts are independent lanes.
	n := mustNet(t, Config{Nodes: 2, DevicesPerNode: 3})
	for di := 0; di < 3; di++ {
		if err := n.DeviceN(0, di).Inject(Packet{Dst: 1, T0: uint64(di)}); err != nil {
			t.Fatal(err)
		}
	}
	for di := 0; di < 3; di++ {
		p := pollWait(t, n.DeviceN(1, di), time.Second)
		if p.T0 != uint64(di) {
			t.Fatalf("device %d got packet %d: lanes crossed", di, p.T0)
		}
		if n.DeviceN(1, di).Poll() != nil {
			t.Fatalf("device %d got a second packet", di)
		}
	}
	if n.DeviceN(0, 1).Index() != 1 {
		t.Fatal("device Index wrong")
	}
}

func TestT2MetadataPreserved(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2})
	if err := n.Device(0).Inject(Packet{Dst: 1, T2: 0xABCDEF}); err != nil {
		t.Fatal(err)
	}
	p := pollWait(t, n.Device(1), time.Second)
	if p.T2 != 0xABCDEF {
		t.Fatalf("T2 = %x", p.T2)
	}
}
