package mpipp

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// rig is a two-locality MPI-parcelport test bench driven by explicit
// BackgroundWork calls.
type rig struct {
	pps [2]*Parcelport

	mu       sync.Mutex
	received [2][]*serialization.Message
}

func newRig(t *testing.T, cfg Config, fcfg fabric.Config) *rig {
	t.Helper()
	fcfg.Nodes = 2
	net, err := fabric.NewNetwork(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	world := mpisim.NewWorld(net, mpisim.Config{EagerThreshold: 1024})
	r := &rig{}
	for i := 0; i < 2; i++ {
		i := i
		r.pps[i] = New(world.Comm(i), cfg)
		err := r.pps[i].Start(func(m *serialization.Message) {
			r.mu.Lock()
			r.received[i] = append(r.received[i], m)
			r.mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		r.pps[0].Stop()
		r.pps[1].Stop()
	})
	return r
}

// pump drives both parcelports until cond holds.
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

func (r *rig) recvCount(loc int) func() bool {
	return func() bool { return len(r.received[1]) >= loc }
}

// msgWith builds an HPX message from parcels.
func msgWith(t *testing.T, argSizes ...int) (*serialization.Message, *serialization.Parcel) {
	t.Helper()
	p := &serialization.Parcel{Source: 0, Dest: 1, Action: 3}
	for i, sz := range argSizes {
		a := make([]byte, sz)
		for j := range a {
			a[j] = byte(i + j)
		}
		p.Args = append(p.Args, a)
	}
	return serialization.Encode([]*serialization.Parcel{p}, 0), p
}

// checkRoundTrip decodes the received message and compares to the parcel.
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

func TestSmallMessageFullyPiggybacked(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{LatencyNs: 200})
	m, p := msgWith(t, 16, 64)
	var sent bool
	m.OnSent = func() { sent = true }
	r.pps[0].Send(1, m)
	r.pump(t, 5*time.Second, r.recvCount(1))
	checkRoundTrip(t, r.received[1][0], p)
	if !sent {
		t.Fatal("OnSent never fired")
	}
	st := r.pps[0].Stats()
	if st.MessagesSent != 1 || st.HeadersPiggyNZC != 1 {
		t.Fatalf("sender stats %+v", st)
	}
	if r.pps[1].Stats().MessagesRecvd != 1 {
		t.Fatal("receiver count")
	}
}

func TestZeroCopyChunks(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{LatencyNs: 200})
	// Two zero-copy args (>= 8192) plus small args: header + trans(piggy) +
	// nzc(piggy) + 2 zc follow-ups.
	m, p := msgWith(t, 100, 9000, 20000)
	r.pps[0].Send(1, m)
	r.pump(t, 10*time.Second, r.recvCount(1))
	checkRoundTrip(t, r.received[1][0], p)
}

func TestLargeNZCNotPiggybacked(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{})
	// An nzc chunk bigger than the max header (many mid-size inline args).
	m, p := msgWith(t, 4000, 4000, 4000)
	if len(m.NonZeroCopy) <= serialization.DefaultZeroCopyThreshold {
		t.Fatalf("test premise: nzc is %d bytes", len(m.NonZeroCopy))
	}
	r.pps[0].Send(1, m)
	r.pump(t, 10*time.Second, r.recvCount(1))
	checkRoundTrip(t, r.received[1][0], p)
	if r.pps[0].Stats().HeadersPiggyNZC != 0 {
		t.Fatal("oversized nzc must not piggyback")
	}
}

func TestManyMessagesInterleaved(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{LatencyNs: 100})
	const n = 40
	var parcels []*serialization.Parcel
	for i := 0; i < n; i++ {
		m, p := msgWith(t, 32+i, 9000+i)
		parcels = append(parcels, p)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) == n })
	// Order through one parcelport pair is preserved (header channel is a
	// single serialized stream).
	for i, m := range r.received[1] {
		checkRoundTrip(t, m, parcels[i])
	}
	if got := r.pps[0].PendingConnections(); got != 0 {
		t.Fatalf("pending connections leak: %d", got)
	}
}

func TestBidirectional(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{})
	m01, p01 := msgWith(t, 10000)
	m10, p10 := msgWith(t, 12000)
	r.pps[0].Send(1, m01)
	r.pps[1].Send(0, m10)
	r.pump(t, 10*time.Second, func() bool {
		return len(r.received[0]) == 1 && len(r.received[1]) == 1
	})
	checkRoundTrip(t, r.received[1][0], p01)
	checkRoundTrip(t, r.received[0][0], p10)
}

func TestOriginalModeTagRelease(t *testing.T) {
	r := newRig(t, Config{Original: true}, fabric.Config{})
	if r.pps[0].MaxHeaderSize() != 512 {
		t.Fatalf("original header size = %d", r.pps[0].MaxHeaderSize())
	}
	const n = 10
	var parcels []*serialization.Parcel
	for i := 0; i < n; i++ {
		m, p := msgWith(t, 64, 9000)
		parcels = append(parcels, p)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) == n })
	for i, m := range r.received[1] {
		checkRoundTrip(t, m, parcels[i])
	}
	// Tag releases flow back to the sender.
	r.pump(t, 10*time.Second, func() bool {
		return r.pps[0].Stats().TagReleasesRecvd == n
	})
	if r.pps[1].Stats().TagReleasesSent != n {
		t.Fatalf("receiver sent %d releases", r.pps[1].Stats().TagReleasesSent)
	}
}

func TestOriginalModeNoTransPiggyback(t *testing.T) {
	r := newRig(t, Config{Original: true}, fabric.Config{})
	m, p := msgWith(t, 8, 9000) // tiny nzc + one zc: trans would fit, but must not ride
	r.pps[0].Send(1, m)
	r.pump(t, 10*time.Second, r.recvCount(1))
	checkRoundTrip(t, r.received[1][0], p)
	if r.pps[0].Stats().HeadersPiggyTr != 0 {
		t.Fatal("original mode piggybacked the transmission chunk")
	}
}

func TestStartValidation(t *testing.T) {
	net, _ := fabric.NewNetwork(fabric.Config{Nodes: 1})
	world := mpisim.NewWorld(net, mpisim.Config{})
	pp := New(world.Comm(0), Config{})
	if err := pp.Start(nil); err == nil {
		t.Fatal("nil deliver must fail")
	}
}

func TestStopIdempotentAndQuiesces(t *testing.T) {
	r := newRig(t, Config{}, fabric.Config{})
	r.pps[0].Stop()
	r.pps[0].Stop()
	if r.pps[0].BackgroundWork(0) {
		t.Fatal("background work after stop")
	}
}

func TestTagProviderReuse(t *testing.T) {
	p := newTagProvider()
	t1 := p.acquire()
	t2 := p.acquire()
	if t1 < firstFreeTag || t2 < firstFreeTag || t1 == t2 {
		t.Fatalf("tags %d %d", t1, t2)
	}
	p.release(t1)
	if got := p.acquire(); got != t1 {
		t.Fatalf("released tag not reused: got %d want %d", got, t1)
	}
}

func TestNameVariants(t *testing.T) {
	net, _ := fabric.NewNetwork(fabric.Config{Nodes: 1})
	world := mpisim.NewWorld(net, mpisim.Config{})
	if New(world.Comm(0), Config{}).Name() != "mpi" {
		t.Fatal("improved name")
	}
	if New(world.Comm(0), Config{Original: true}).Name() != "mpi_orig" {
		t.Fatal("original name")
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
// (which used to reach make and panic the polling worker), is dropped by
// the receiver without parking a connection, and the intact message behind
// it is delivered. The receiver's refusal itself — before any allocation,
// owner released exactly once — is table-tested against parcelport.Recv.
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
			r := newRig(t, Config{}, fabric.Config{LatencyNs: 200})
			if tc.trans == nil {
				hdr := make([]byte, 64)
				n, _, _, err := parcelport.EncodeHeader(hdr, 1<<19, &serialization.Message{}, len(hdr), true)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(hdr[12:], 1<<62) // TransSize, after BaseTag and NZCSize
				if _, err := r.pps[0].comm.Isend(hdr[:n], 1, headerTag); err != nil {
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
			r.pump(t, 20*time.Second, r.recvCount(1))
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
			if n := r.pps[1].PendingConnections(); n != 0 {
				t.Fatalf("%d receiver connections left pending", n)
			}
		})
	}
}
