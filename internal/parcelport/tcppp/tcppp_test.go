package tcppp

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/serialization"
)

// rig wires a TCP parcelport group with recording delivery callbacks.
type rig struct {
	g *Group

	mu       sync.Mutex
	received [][]*serialization.Message
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	g, err := NewGroup(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{g: g, received: make([][]*serialization.Message, n)}
	for i := 0; i < n; i++ {
		i := i
		if err := g.Parcelport(i).Start(func(m *serialization.Message) {
			r.mu.Lock()
			r.received[i] = append(r.received[i], m)
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := 0; i < n; i++ {
			g.Parcelport(i).Stop()
		}
	})
	return r
}

func (r *rig) waitCount(t *testing.T, loc, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		n := len(r.received[loc])
		r.mu.Unlock()
		if n >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("locality %d received %d messages, want %d", loc, len(r.received[loc]), want)
}

func msgWith(argSizes ...int) (*serialization.Message, *serialization.Parcel) {
	p := &serialization.Parcel{Source: 0, Dest: 1, Action: 4}
	for i, sz := range argSizes {
		a := make([]byte, sz)
		for j := range a {
			a[j] = byte(i*7 + j)
		}
		p.Args = append(p.Args, a)
	}
	return serialization.Encode([]*serialization.Parcel{p}, 0), p
}

func checkRoundTrip(t *testing.T, m *serialization.Message, want *serialization.Parcel) {
	t.Helper()
	ps, err := serialization.Decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || len(ps[0].Args) != len(want.Args) {
		t.Fatalf("decoded %d parcels", len(ps))
	}
	for i := range want.Args {
		if !bytes.Equal(ps[0].Args[i], want.Args[i]) {
			t.Fatalf("arg %d corrupted", i)
		}
	}
}

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(0, Config{}); err == nil {
		t.Fatal("zero localities should fail")
	}
}

func TestSmallMessageRoundTrip(t *testing.T) {
	r := newRig(t, 2)
	m, p := msgWith(16)
	var sent atomic.Bool
	m.OnSent = func() { sent.Store(true) }
	r.g.Parcelport(0).Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	checkRoundTrip(t, r.received[1][0], p)
	deadline := time.Now().Add(5 * time.Second)
	for !sent.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !sent.Load() {
		t.Fatal("OnSent never fired")
	}
}

func TestZeroCopyChunksRoundTrip(t *testing.T) {
	r := newRig(t, 2)
	m, p := msgWith(64, 9000, 40000)
	r.g.Parcelport(0).Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	checkRoundTrip(t, r.received[1][0], p)
}

func TestOrderPreservedPerPair(t *testing.T) {
	// TCP is a byte stream: per-pair ordering is guaranteed.
	r := newRig(t, 2)
	const n = 100
	var parcels []*serialization.Parcel
	for i := 0; i < n; i++ {
		m, p := msgWith(8 + i)
		parcels = append(parcels, p)
		r.g.Parcelport(0).Send(1, m)
	}
	r.waitCount(t, 1, n, 20*time.Second)
	for i, m := range r.received[1] {
		checkRoundTrip(t, m, parcels[i])
	}
}

func TestAllToAll(t *testing.T) {
	const n = 4
	r := newRig(t, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			m, _ := msgWith(100 * (src + 1))
			r.g.Parcelport(src).Send(dst, m)
		}
	}
	for dst := 0; dst < n; dst++ {
		r.waitCount(t, dst, n-1, 20*time.Second)
	}
}

func TestStats(t *testing.T) {
	r := newRig(t, 2)
	m, _ := msgWith(500)
	r.g.Parcelport(0).Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for r.g.Parcelport(0).Stats().MessagesSent == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s0, s1 := r.g.Parcelport(0).Stats(), r.g.Parcelport(1).Stats()
	if s0.MessagesSent != 1 || s0.BytesSent == 0 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MessagesRecvd != 1 || s1.BytesRecvd != s0.BytesSent {
		t.Fatalf("receiver stats %+v vs %+v", s1, s0)
	}
}

func TestStartValidation(t *testing.T) {
	g, err := NewGroup(1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Parcelport(0).Stop()
	if err := g.Parcelport(0).Start(nil); err == nil {
		t.Fatal("nil deliver should fail")
	}
	if err := g.Parcelport(0).Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Parcelport(0).Start(func(*serialization.Message) {}); err == nil {
		t.Fatal("double start should fail")
	}
}

func TestStopIdempotentAndSendAfterStop(t *testing.T) {
	r := newRig(t, 2)
	pp := r.g.Parcelport(0)
	pp.Stop()
	pp.Stop()
	m, _ := msgWith(8)
	pp.Send(1, m) // must not panic or block
	if pp.BackgroundWork(0) {
		t.Fatal("tcp parcelport claims background work")
	}
}

func TestInvalidDestinationDropped(t *testing.T) {
	r := newRig(t, 2)
	m, _ := msgWith(8)
	r.g.Parcelport(0).Send(9, m) // silently dropped, no panic
}

// TestOversizeChunkFailsConnection: a frame whose transmission chunk
// announces a zero-copy chunk one byte above serialization.MaxChunkSize is
// refused by the shared receiver before anything is staged for it; the
// inbound connection it arrived on is closed, and the parcelport keeps
// delivering on its other connections.
func TestOversizeChunkFailsConnection(t *testing.T) {
	// A transmission chunk with one entry: chunk 0, MaxChunkSize+1 bytes.
	trans := binary.LittleEndian.AppendUint32(nil, 1)
	trans = binary.LittleEndian.AppendUint32(trans, 0)
	trans = binary.LittleEndian.AppendUint64(trans, serialization.MaxChunkSize+1)
	var frame bytes.Buffer
	bad := &serialization.Message{NonZeroCopy: []byte("metadata"), Transmission: trans, ZeroCopy: [][]byte{make([]byte, 16)}}
	if err := writeFrame(&frame, bad, make([]byte, 8+maxHeader)); err != nil {
		t.Fatal(err)
	}

	r := newRig(t, 2)
	conn, err := net.Dial("tcp", r.g.Parcelport(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("receiver kept the connection open after a corrupt frame: %v", err)
	}
	m, want := msgWith(64, 9000)
	r.g.Parcelport(0).Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.received[1]) != 1 {
		t.Fatalf("%d messages delivered, want only the intact one", len(r.received[1]))
	}
	checkRoundTrip(t, r.received[1][0], want)
}

// TestDeadPeerDoesNotWedgeSend: once the peer is gone, its connection's
// writer fails; more sends than the queue holds must neither block the
// caller nor lose a completion.
func TestDeadPeerDoesNotWedgeSend(t *testing.T) {
	r := newRig(t, 2)
	pp := r.g.Parcelport(0)
	m, _ := msgWith(8)
	pp.Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	r.g.Parcelport(1).Stop()

	const n = 3 * 1024 // three default send queues' worth
	var completed atomic.Int32
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 0; i < n; i++ {
			m, _ := msgWith(4096)
			m.OnSent = func() { completed.Add(1) }
			pp.Send(1, m)
		}
	}()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("Send blocked on a dead peer")
	}
	deadline := time.Now().Add(10 * time.Second)
	for completed.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := completed.Load(); got != n {
		t.Fatalf("%d of %d sends completed", got, n)
	}
}
