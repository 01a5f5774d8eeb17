package lcipp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// rig is a two-locality LCI-parcelport bench. Worker-progress ("mt")
// configurations are driven entirely by explicit BackgroundWork calls;
// pinned configurations additionally run their real progress thread.
type rig struct {
	pps    [2]*Parcelport
	scheds [2]*amt.Scheduler

	mu       sync.Mutex
	received [2][]*serialization.Message
}

func newRig(t *testing.T, cfg Config, fcfg fabric.Config, lciCfg lci.Config) *rig {
	t.Helper()
	fcfg.Nodes = 2
	net, err := fabric.NewNetwork(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{}
	for i := 0; i < 2; i++ {
		i := i
		r.scheds[i] = amt.New(amt.Config{Workers: 1, Name: fmt.Sprintf("rig-%d", i)})
		dev := lci.NewDevice(net.Device(i), lciCfg, nil)
		pp, err := New(dev, r.scheds[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.pps[i] = pp
		if err := pp.Start(func(m *serialization.Message) {
			r.mu.Lock()
			r.received[i] = append(r.received[i], m)
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		r.pps[0].Stop()
		r.pps[1].Stop()
		r.scheds[0].Stop()
		r.scheds[1].Stop()
	})
	return r
}

func (r *rig) pump(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		r.pps[0].BackgroundWork(0)
		r.pps[1].BackgroundWork(0)
		r.mu.Lock()
		ok := cond()
		r.mu.Unlock()
		if ok {
			return
		}
	}
	t.Fatalf("condition not reached in %v", timeout)
}

func msgWith(t *testing.T, argSizes ...int) (*serialization.Message, *serialization.Parcel) {
	t.Helper()
	p := &serialization.Parcel{Source: 0, Dest: 1, Action: 9}
	for i, sz := range argSizes {
		a := make([]byte, sz)
		for j := range a {
			a[j] = byte(3*i + j)
		}
		p.Args = append(p.Args, a)
	}
	return serialization.Encode([]*serialization.Parcel{p}, 0), p
}

func checkRoundTrip(t *testing.T, m *serialization.Message, want *serialization.Parcel) {
	t.Helper()
	var buf serialization.DecodeBuf
	ps, err := serialization.DecodeInto(&buf, m)
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

// variantConfigs enumerates all 2x2x2 LCI parcelport variants.
func variantConfigs() []Config {
	var out []Config
	for _, proto := range []parcelport.Protocol{parcelport.PutSendRecv, parcelport.SendRecv} {
		for _, comp := range []parcelport.Completion{parcelport.CompletionQueue, parcelport.Synchronizer} {
			for _, prog := range []parcelport.ProgressMode{parcelport.PinnedProgress, parcelport.WorkerProgress} {
				out = append(out, Config{Protocol: proto, Completion: comp, Progress: prog})
			}
		}
	}
	return out
}

func TestAllVariantsRoundTrip(t *testing.T) {
	for _, cfg := range variantConfigs() {
		cfg := cfg
		name := parcelport.Config{Transport: parcelport.TransportLCI, Protocol: cfg.Protocol,
			Completion: cfg.Completion, Progress: cfg.Progress}.String()
		t.Run(name, func(t *testing.T) {
			r := newRig(t, cfg, fabric.Config{LatencyNs: 200, Rails: 2}, lci.Config{})
			if got := r.pps[0].Name(); got != name {
				t.Fatalf("Name = %q, want %q", got, name)
			}
			// Small (all piggybacked), medium follow-up, and zero-copy.
			m1, p1 := msgWith(t, 32)
			m2, p2 := msgWith(t, 4000, 4000, 4000) // nzc too big to piggyback
			m3, p3 := msgWith(t, 64, 9000, 20000)  // zero-copy rendezvous chunks
			r.pps[0].Send(1, m1)
			r.pps[0].Send(1, m2)
			r.pps[0].Send(1, m3)
			// Wait for delivery AND for the sender's final completions to
			// drain (they trail the last payload).
			r.pump(t, 20*time.Second, func() bool {
				return len(r.received[1]) == 3 && r.pps[0].Stats().MessagesSent == 3
			})
			// LCI does not guarantee ordering across messages: match by shape.
			for _, m := range r.received[1] {
				var buf serialization.DecodeBuf
				ps, err := serialization.DecodeInto(&buf, m)
				if err != nil {
					t.Fatal(err)
				}
				switch len(ps[0].Args) {
				case 1:
					checkRoundTrip(t, m, p1)
				case 3:
					if len(ps[0].Args[1]) == 4000 {
						checkRoundTrip(t, m, p2)
					} else {
						checkRoundTrip(t, m, p3)
					}
				default:
					t.Fatalf("unexpected arg count %d", len(ps[0].Args))
				}
			}
			if st := r.pps[0].Stats(); st.MessagesSent != 3 {
				t.Fatalf("sender stats %+v", st)
			}
			if st := r.pps[1].Stats(); st.MessagesRecvd != 3 {
				t.Fatalf("receiver stats %+v", st)
			}
		})
	}
}

func TestOnSentFires(t *testing.T) {
	r := newRig(t, Config{Progress: parcelport.WorkerProgress}, fabric.Config{}, lci.Config{})
	m, _ := msgWith(t, 64, 9000)
	var sent bool
	r.mu.Lock()
	m.OnSent = func() { sent = true }
	r.mu.Unlock()
	r.pps[0].Send(1, m)
	r.pump(t, 10*time.Second, func() bool { return sent })
}

func TestRetryUnderBackpressure(t *testing.T) {
	// A tiny injection window forces ErrRetry paths; everything must still
	// arrive.
	r := newRig(t, Config{Progress: parcelport.WorkerProgress},
		fabric.Config{MaxInflight: 2, LatencyNs: 2000}, lci.Config{})
	const n = 20
	var parcels []*serialization.Parcel
	for i := 0; i < n; i++ {
		m, p := msgWith(t, 128+i, 9000)
		parcels = append(parcels, p)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 30*time.Second, func() bool { return len(r.received[1]) == n })
	if r.pps[0].Stats().SendRetries == 0 {
		t.Fatal("expected retries under MaxInflight=2")
	}
	// Account for every parcel (order not guaranteed).
	seen := make([]bool, n)
	for _, m := range r.received[1] {
		var buf serialization.DecodeBuf
		ps, err := serialization.DecodeInto(&buf, m)
		if err != nil {
			t.Fatal(err)
		}
		matched := false
		for i, p := range parcels {
			if !seen[i] && len(ps[0].Args[0]) == len(p.Args[0]) {
				checkRoundTrip(t, m, p)
				seen[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Fatal("received message matches no sent parcel")
		}
	}
}

func TestPoolExhaustionRetries(t *testing.T) {
	// A 4-packet pool forces GetPacket retries for putsendrecv headers.
	r := newRig(t, Config{Progress: parcelport.WorkerProgress},
		fabric.Config{}, lci.Config{PoolPackets: 4})
	const n = 30
	for i := 0; i < n; i++ {
		m, _ := msgWith(t, 64)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) == n })
}

func TestSyncPendingListDrains(t *testing.T) {
	cfg := Config{Completion: parcelport.Synchronizer, Progress: parcelport.WorkerProgress}
	r := newRig(t, cfg, fabric.Config{}, lci.Config{})
	for i := 0; i < 10; i++ {
		m, _ := msgWith(t, 64, 9000)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) == 10 })
	r.pump(t, 10*time.Second, func() bool {
		return r.pps[0].PendingSyncs() == 0 && r.pps[1].PendingSyncs() == 0
	})
	if r.pps[1].Stats().SyncPolls == 0 {
		t.Fatal("synchronizer list was never polled")
	}
}

func TestBidirectionalSendRecvProtocol(t *testing.T) {
	cfg := Config{Protocol: parcelport.SendRecv, Progress: parcelport.WorkerProgress}
	r := newRig(t, cfg, fabric.Config{LatencyNs: 100}, lci.Config{})
	m01, p01 := msgWith(t, 9000)
	m10, p10 := msgWith(t, 11000)
	r.pps[0].Send(1, m01)
	r.pps[1].Send(0, m10)
	r.pump(t, 10*time.Second, func() bool {
		return len(r.received[0]) == 1 && len(r.received[1]) == 1
	})
	checkRoundTrip(t, r.received[1][0], p01)
	checkRoundTrip(t, r.received[0][0], p10)
}

func TestNewValidation(t *testing.T) {
	net, _ := fabric.NewNetwork(fabric.Config{Nodes: 1})
	dev := lci.NewDevice(net.Device(0), lci.Config{}, nil)
	if _, err := New(dev, nil, Config{Progress: parcelport.PinnedProgress}); err == nil {
		t.Fatal("pinned progress without scheduler must fail")
	}
	pp, err := New(dev, nil, Config{Progress: parcelport.WorkerProgress})
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Start(nil); err == nil {
		t.Fatal("nil deliver must fail")
	}
}

func TestMaxHeaderBoundedByEager(t *testing.T) {
	net, _ := fabric.NewNetwork(fabric.Config{Nodes: 1})
	dev := lci.NewDevice(net.Device(0), lci.Config{EagerThreshold: 2048}, nil)
	pp, err := New(dev, nil, Config{Progress: parcelport.WorkerProgress})
	if err != nil {
		t.Fatal(err)
	}
	if pp.MaxHeaderSize() != 2048 {
		t.Fatalf("MaxHeaderSize = %d, want 2048 (eager bound)", pp.MaxHeaderSize())
	}
}

func TestStopIdempotent(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{}, lci.Config{})
	r.pps[0].Stop()
	r.pps[0].Stop()
	if r.pps[0].BackgroundWork(0) {
		t.Fatal("background work after stop")
	}
}

// TestPollDevicesQueuesWithoutDelivering: PollDevices moves an arrived header
// into the completion queue and stops there — the message is delivered only
// when the queue is drained — and does nothing once the parcelport stopped.
func TestPollDevicesQueuesWithoutDelivering(t *testing.T) {
	r := newRig(t, Config{Progress: parcelport.WorkerProgress}, fabric.Config{}, lci.Config{})
	m, p := msgWith(t, 32)
	r.pps[0].Send(1, m)
	deadline := time.Now().Add(10 * time.Second)
	for r.pps[1].putCQs[0].Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("header never reached the put completion queue")
		}
		r.pps[1].PollDevices()
	}
	r.mu.Lock()
	early := len(r.received[1])
	r.mu.Unlock()
	if early != 0 {
		t.Fatalf("PollDevices delivered %d messages", early)
	}
	if !r.pps[1].drainCQ() {
		t.Fatal("drain found nothing after the poll queued the header")
	}
	r.mu.Lock()
	got := r.received[1]
	r.mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("drain delivered %d messages, want 1", len(got))
	}
	checkRoundTrip(t, got[0], p)
	r.pps[1].Stop()
	if r.pps[1].PollDevices() {
		t.Fatal("PollDevices worked after stop")
	}
}

// transChunk builds a transmission chunk from (index, size) entries.
func transChunk(entries ...[2]uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
		b = binary.LittleEndian.AppendUint64(b, e[1])
	}
	return b
}

// TestCorruptTransmissionChunkFailsConnection: over the wire, a message
// whose transmission chunk announces an absurd chunk size or lists a chunk
// index twice, or whose header announces a 1<<62-byte transmission chunk
// (which used to reach make and panic the progress path), is dropped by the
// receiver, and the intact message behind it is delivered. The receiver's
// refusal itself — before any allocation, owner released exactly once — is
// table-tested against parcelport.Recv.
func TestCorruptTransmissionChunkFailsConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trans []byte // nil: inject a header announcing 1<<62 bytes of it
		numZC int
	}{
		{"size 1<<62", transChunk([2]uint64{0, 1 << 62}), 1},
		{"size just above the bound", transChunk([2]uint64{0, serialization.MaxChunkSize + 1}), 1},
		{"duplicate index", transChunk([2]uint64{0, 16}, [2]uint64{0, 16}), 2},
		{"header trans size 1<<62", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{Protocol: parcelport.PutSendRecv, Progress: parcelport.WorkerProgress}, fabric.Config{LatencyNs: 200, Rails: 2}, lci.Config{})
			if tc.trans == nil {
				dev := r.pps[0].devs[0]
				pkt, err := dev.GetPacket()
				if err != nil {
					t.Fatal(err)
				}
				n, _, _, err := parcelport.EncodeHeader(pkt.Data, 1<<19, &serialization.Message{}, 64, true)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(pkt.Data[12:], 1<<62) // TransSize, after BaseTag and NZCSize
				if err := dev.PutdPacket(1, 0, pkt, n); err != nil {
					t.Fatal(err)
				}
			} else {
				zc := make([][]byte, tc.numZC)
				for i := range zc {
					zc[i] = make([]byte, 16)
				}
				good, _ := msgWith(t, 64, 9000)
				r.pps[0].Send(1, &serialization.Message{NonZeroCopy: good.NonZeroCopy, Transmission: tc.trans, ZeroCopy: zc})
			}
			good, want := msgWith(t, 64, 9000)
			r.pps[0].Send(1, good)
			r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) >= 1 })
			for i := 0; i < 200; i++ { // room for a wrongly accepted message to surface
				r.pps[0].BackgroundWork(0)
				r.pps[1].BackgroundWork(0)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(r.received[1]) != 1 {
				t.Fatalf("%d messages delivered, want only the intact one", len(r.received[1]))
			}
			checkRoundTrip(t, r.received[1][0], want)
		})
	}
}
