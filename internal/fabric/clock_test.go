package fabric

import (
	"testing"
	"time"
)

// TestPollIdleReadsNoClock: with the ARQ off, a device with nothing queued
// answers Poll from its empty ready index and never reads the clock.
func TestPollIdleReadsNoClock(t *testing.T) {
	n := mustNet(t, Config{Nodes: 4, Rails: 2})
	d := n.Device(1)
	for i := 0; i < 1000; i++ {
		if p := d.Poll(); p != nil {
			t.Fatal("idle device returned a packet")
		}
	}
	if c := d.clockNs.Load(); c != 0 {
		t.Fatalf("idle polls read the clock (last reading %d ns), want none", c)
	}
}

// TestPollWithholdsUntilFreshReading: a head whose arrival lies past the
// device's last clock reading is withheld — the one fresh read Poll takes
// says "not yet" too — and is returned by the first poll whose fresh
// reading passes it, never earlier.
func TestPollWithholdsUntilFreshReading(t *testing.T) {
	const latency = 20 * time.Millisecond
	n := mustNet(t, Config{Nodes: 2, LatencyNs: int64(latency)})
	src, dst := n.Device(0), n.Device(1)
	if err := src.Inject(Packet{Dst: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if p := dst.Poll(); p != nil {
		t.Fatal("packet surfaced before its modelled arrival")
	}
	arrive := dst.in[0][0].headNs.Load()
	first := dst.clockNs.Load()
	if first == 0 || first >= arrive {
		t.Fatalf("withholding poll's reading %d ns, want a fresh reading before arrival %d ns", first, arrive)
	}
	var p *Packet
	for deadline := time.Now().Add(time.Second); p == nil && time.Now().Before(deadline); {
		p = dst.Poll()
		if p == nil && dst.clockNs.Load() >= arrive {
			t.Fatalf("reading %d ns passed arrival %d ns but the packet was withheld", dst.clockNs.Load(), arrive)
		}
	}
	if p == nil {
		t.Fatal("packet never surfaced")
	}
	defer p.Release()
	if p.arriveNs != arrive || dst.clockNs.Load() < arrive {
		t.Fatalf("returned at reading %d ns, arrival %d ns (hint %d)", dst.clockNs.Load(), p.arriveNs, arrive)
	}
}

// TestPollDrainsArrivedOnLastReading: once one poll's fresh reading passes
// a backlog of arrived heads, the polls that drain the rest decide on that
// reading and take no new one.
func TestPollDrainsArrivedOnLastReading(t *testing.T) {
	n := mustNet(t, Config{Nodes: 2, LatencyNs: int64(time.Millisecond)})
	src, dst := n.Device(0), n.Device(1)
	const k = 4
	for i := 0; i < k; i++ {
		if err := src.Inject(Packet{Dst: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(3 * time.Millisecond)
	p := dst.Poll()
	if p == nil {
		t.Fatal("arrived packet withheld")
	}
	p.Release()
	reading := dst.clockNs.Load()
	for i := 1; i < k; i++ {
		p := dst.Poll()
		if p == nil || p.Data[0] != byte(i) {
			t.Fatalf("poll %d: got %v, want packet %d", i, p, i)
		}
		if p.arriveNs > reading {
			t.Fatalf("packet %d arrives at %d ns, after the reading %d ns it was returned on", i, p.arriveNs, reading)
		}
		p.Release()
	}
	if dst.Poll() != nil {
		t.Fatal("drained device returned a packet")
	}
	if got := dst.clockNs.Load(); got != reading {
		t.Fatalf("draining arrived packets read the clock again (%d -> %d ns)", reading, got)
	}
}

// TestPollNeverEarly: under staggered arrivals on several rails (bandwidth
// serialization spaces each rail's packets), every packet Poll returns has
// arrived by a clock read taken right after the return.
func TestPollNeverEarly(t *testing.T) {
	n := mustNet(t, Config{Nodes: 3, LatencyNs: 20_000, GbitsPerSec: 1, Rails: 2})
	dst := n.Device(0)
	const k = 200
	for i := 0; i < k; i++ {
		if err := n.Device(1 + i%2).Inject(Packet{Dst: 0, Data: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for deadline := time.Now().Add(5 * time.Second); got < k && time.Now().Before(deadline); {
		p := dst.Poll()
		if p == nil {
			continue
		}
		if now := n.nowNs(); p.arriveNs > now {
			t.Fatalf("packet surfaced at %d ns, before its arrival at %d ns", now, p.arriveNs)
		}
		p.Release()
		got++
	}
	if got != k {
		t.Fatalf("received %d of %d packets", got, k)
	}
}
