package parcel

import (
	"sync"
	"testing"

	"hpxgo/internal/serialization"
)

// captureSend records sent messages and lets the test control when OnSent
// fires (i.e. when the "connection" completes).
type captureSend struct {
	mu   sync.Mutex
	msgs []*serialization.Message
}

func (c *captureSend) send(dst int, m *serialization.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *captureSend) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *captureSend) completeAll() {
	c.mu.Lock()
	msgs := c.msgs
	c.msgs = nil
	c.mu.Unlock()
	for _, m := range msgs {
		m.Done()
	}
}

func parcelTo(dst int, payload string) *serialization.Parcel {
	return &serialization.Parcel{Dest: dst, Action: 1, Args: [][]byte{[]byte(payload)}}
}

func TestImmediateBypassesQueue(t *testing.T) {
	cs := &captureSend{}
	l := NewLayer(2, Config{Immediate: true}, cs.send)
	for i := 0; i < 5; i++ {
		l.Put(parcelTo(1, "x"))
	}
	if cs.count() != 5 {
		t.Fatalf("immediate mode sent %d messages, want 5 (one per parcel)", cs.count())
	}
	st := l.Stats()
	if st.ParcelsSent != 5 || st.MessagesSent != 5 || st.AggregatedSends != 0 {
		t.Fatalf("stats %+v", st)
	}
	if l.QueuedParcels(1) != 0 {
		t.Fatal("immediate mode must not queue")
	}
}

func TestDefaultModeSendsAndCompletes(t *testing.T) {
	cs := &captureSend{}
	l := NewLayer(2, Config{}, cs.send)
	l.Put(parcelTo(1, "hello"))
	if cs.count() != 1 {
		t.Fatalf("sent %d messages, want 1", cs.count())
	}
	var buf serialization.DecodeBuf
	ps, err := serialization.DecodeInto(&buf, cs.msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || string(ps[0].Args[0]) != "hello" {
		t.Fatal("parcel corrupted through the layer")
	}
	cs.completeAll()
}

func TestAggregationWhenConnectionBusy(t *testing.T) {
	cs := &captureSend{}
	// One connection only: while it is in flight, further parcels queue and
	// later drain as one aggregated message.
	l := NewLayer(2, Config{MaxConnections: 1}, cs.send)
	l.Put(parcelTo(1, "first"))
	if cs.count() != 1 {
		t.Fatal("first parcel should send immediately")
	}
	for i := 0; i < 4; i++ {
		l.Put(parcelTo(1, "queued"))
	}
	if cs.count() != 1 {
		t.Fatalf("parcels leaked past the exhausted connection cache: %d msgs", cs.count())
	}
	if l.QueuedParcels(1) != 4 {
		t.Fatalf("queued = %d, want 4", l.QueuedParcels(1))
	}
	cs.completeAll() // completing the first send must drain the queue
	if cs.count() != 1 {
		t.Fatalf("drain after completion sent %d messages, want 1", cs.count())
	}
	var buf serialization.DecodeBuf
	ps, err := serialization.DecodeInto(&buf, cs.msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("aggregated message carries %d parcels, want 4", len(ps))
	}
	st := l.Stats()
	if st.AggregatedSends != 1 {
		t.Fatalf("AggregatedSends = %d, want 1", st.AggregatedSends)
	}
	if st.CacheExhausted == 0 {
		t.Fatal("CacheExhausted should have counted")
	}
	cs.completeAll()
}

func TestConnectionsReused(t *testing.T) {
	cs := &captureSend{}
	l := NewLayer(2, Config{MaxConnections: 1}, cs.send)
	for i := 0; i < 10; i++ {
		l.Put(parcelTo(1, "p"))
		cs.completeAll()
	}
	st := l.Stats()
	if st.MessagesSent != 10 {
		t.Fatalf("MessagesSent = %d, want 10", st.MessagesSent)
	}
	// With sequential completion the single cached connection suffices;
	// the cache was only exhausted if sends overlapped (they did not).
	if st.CacheExhausted != 0 {
		t.Fatalf("CacheExhausted = %d, want 0", st.CacheExhausted)
	}
}

func TestZeroCopyThresholdApplied(t *testing.T) {
	cs := &captureSend{}
	l := NewLayer(2, Config{Immediate: true}, cs.send)
	const zc = serialization.DefaultZeroCopyThreshold
	l.Put(&serialization.Parcel{Dest: 0, Args: [][]byte{make([]byte, zc-1)}})
	l.Put(&serialization.Parcel{Dest: 0, Args: [][]byte{make([]byte, zc)}})
	if len(cs.msgs[0].ZeroCopy) != 0 {
		t.Fatal("argument below threshold should be inline")
	}
	if len(cs.msgs[1].ZeroCopy) != 1 {
		t.Fatal("argument at threshold should be zero-copy")
	}
}

func TestConcurrentPutsAllDelivered(t *testing.T) {
	cs := &captureSend{}
	l := NewLayer(2, Config{MaxConnections: 2}, cs.send)
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	done := make(chan struct{})
	// Completer goroutine: keeps finishing in-flight sends so connections
	// recycle while producers hammer the queue.
	go func() {
		for {
			cs.completeAll()
			select {
			case <-done:
				cs.completeAll()
				return
			default:
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Put(parcelTo(1, "c"))
			}
		}()
	}
	wg.Wait()
	close(done)
	// Drain any tail.
	for l.QueuedParcels(1) > 0 {
		cs.completeAll()
	}
	if got := l.Stats().ParcelsSent; got != goroutines*each {
		t.Fatalf("ParcelsSent = %d, want %d", got, goroutines*each)
	}
}

func TestDefaultsFilled(t *testing.T) {
	l := NewLayer(1, Config{}, func(int, *serialization.Message) {})
	if l.cfg.MaxConnections != 8192 {
		t.Fatalf("MaxConnections default = %d", l.cfg.MaxConnections)
	}
}
