package lcipp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// protocols names the two header protocols for subtests.
var protocols = []struct {
	name  string
	proto parcelport.Protocol
}{{"psr", parcelport.PutSendRecv}, {"sr", parcelport.SendRecv}}

// wireRig is an LCI parcelport on node 0 whose peer on node 1 is a bare LCI
// device, so a test sees each header message exactly as it left the sender.
type wireRig struct {
	pp  *Parcelport
	dev *lci.Device    // node 1
	cq  *lci.CompQueue // sr: completions of the posted header receive
}

func newWireRig(t *testing.T, proto parcelport.Protocol) *wireRig {
	t.Helper()
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := New(lci.NewDevice(net.Device(0), lci.Config{}, nil), nil, Config{Protocol: proto, Progress: parcelport.WorkerProgress})
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pp.Stop)
	return &wireRig{pp: pp, dev: lci.NewDevice(net.Device(1), lci.Config{}, nil), cq: lci.NewCompQueue(0)}
}

// capture runs send and returns the first header message node 1 receives:
// the payload of a dynamic put (psr) or of a medium message on the header
// tag (sr).
func (w *wireRig) capture(t *testing.T, send func()) []byte {
	t.Helper()
	cq := w.dev.PutCQ()
	if w.pp.cfg.Protocol == parcelport.SendRecv {
		cq = w.cq
		if err := w.dev.Recvm(lci.AnyRank, headerMsgTag, make([]byte, w.pp.MaxHeaderSize()), cq, nil); err != nil {
			t.Fatal(err)
		}
	}
	send()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		w.pp.BackgroundWork(0)
		w.dev.Progress()
		if req, ok := cq.Pop(); ok {
			out := append([]byte(nil), req.Data...)
			if req.Pkt != nil {
				req.Pkt.Release()
			}
			return out
		}
	}
	t.Fatal("no header message arrived")
	return nil
}

func randParcel(rng *rand.Rand) serialization.Parcel {
	p := serialization.Parcel{Source: rng.Intn(64), Dest: 1, Action: rng.Uint32(), ContID: rng.Uint64()}
	for i := rng.Intn(5); i > 0; i-- {
		a := make([]byte, rng.Intn(300))
		rng.Read(a)
		p.Args = append(p.Args, a)
	}
	return p
}

// TestConnectionlessWireFormat: the header bytes SendParcel and Send put on
// the wire equal EncodeHeader(EncodeOne(p)) — the connection path's format —
// apart from BaseTag, which a connectionless header carries as 0. Boundary
// rows pin the split: a non-zero-copy chunk that exactly fills MaxHeaderSize
// still leaves connectionless, one byte more or a zero-copy argument takes a
// connection, and a message whose transmission chunk rides the header with
// no zero-copy chunk is complete too.
func TestConnectionlessWireFormat(t *testing.T) {
	for _, pr := range protocols {
		t.Run(pr.name, func(t *testing.T) {
			w := newWireRig(t, pr.proto)
			maxHdr := w.pp.MaxHeaderSize()
			// fill is the size of the one argument whose encoding fills the
			// header cap exactly.
			fill := maxHdr - parcelport.ParcelHeaderSize(&serialization.Parcel{Args: [][]byte{nil}})
			type row struct {
				name     string
				p        serialization.Parcel
				complete bool
			}
			rows := []row{
				{"nzc fills MaxHeaderSize", serialization.Parcel{Dest: 1, Action: 5, Args: [][]byte{make([]byte, fill)}}, true},
				{"nzc one byte over", serialization.Parcel{Dest: 1, Action: 5, Args: [][]byte{make([]byte, fill+1)}}, false},
				{"zero-copy argument", serialization.Parcel{Dest: 1, Action: 6, Args: [][]byte{make([]byte, 64), make([]byte, serialization.DefaultZeroCopyThreshold)}}, false},
				{"no arguments", serialization.Parcel{Dest: 1, Action: 7, ContID: 9}, true},
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 40; i++ {
				rows = append(rows, row{"random", randParcel(rng), true})
			}
			for _, r := range rows {
				p := r.p
				m := serialization.EncodeOne(&p, 0)
				want := make([]byte, maxHdr)
				n, _, _, err := parcelport.EncodeHeader(want, 0, m, maxHdr, true)
				if err != nil {
					t.Fatal(err)
				}
				want = want[:n]
				if sent := w.pp.SendParcel(1, p); sent != r.complete {
					t.Fatalf("%s: SendParcel = %v, want %v", r.name, sent, r.complete)
				} else if sent {
					checkHeader(t, r.name+"/SendParcel", w.capture(t, func() {}), want, true)
				}
				got := w.capture(t, func() { w.pp.Send(1, m) })
				checkHeader(t, r.name+"/Send", got, want, r.complete)
			}
			// A transmission chunk that rides the header with no zero-copy
			// chunk behind it: Header.Complete holds, so no connection.
			m := &serialization.Message{NonZeroCopy: []byte("nzc"), Transmission: []byte("trans")}
			want := make([]byte, maxHdr)
			n, _, _, err := parcelport.EncodeHeader(want, 0, m, maxHdr, true)
			if err != nil {
				t.Fatal(err)
			}
			checkHeader(t, "transmission chunk", w.capture(t, func() { w.pp.Send(1, m) }), want[:n], true)
		})
	}
}

// checkHeader compares a captured header with the expected encoding apart
// from BaseTag, which must be 0 exactly when the message went connectionless.
func checkHeader(t *testing.T, name string, got, want []byte, complete bool) {
	t.Helper()
	if len(got) != len(want) || !bytes.Equal(got[4:], want[4:]) {
		t.Fatalf("%s: header bytes differ from EncodeHeader (got %d bytes, want %d)", name, len(got), len(want))
	}
	h, err := parcelport.DecodeHeader(got)
	if err != nil {
		t.Fatal(err)
	}
	if h.Complete() != complete || (h.BaseTag == 0) != complete {
		t.Fatalf("%s: complete = %v with BaseTag %d, want complete = %v", name, h.Complete(), h.BaseTag, complete)
	}
}

// TestConnectionlessExactlyOnceUnderBackpressure: with a 4-packet pool and a
// 2-packet injection window, connectionless sends fall back to connections
// mid-stream (the pool runs dry, the fabric pushes back) and come back once
// progress catches up. Each of N sends, direct parcels and complete messages
// alike, must be delivered exactly once.
func TestConnectionlessExactlyOnceUnderBackpressure(t *testing.T) {
	for _, pr := range protocols {
		t.Run(pr.name, func(t *testing.T) {
			r := newRig(t, Config{Protocol: pr.proto, Progress: parcelport.WorkerProgress},
				fabric.Config{MaxInflight: 2, LatencyNs: 2000}, lci.Config{PoolPackets: 4})
			const n = 300
			direct, fellBack := 0, 0
			for i := 0; i < n; i++ {
				var id [8]byte
				binary.LittleEndian.PutUint64(id[:], uint64(i))
				p := serialization.Parcel{Dest: 1, Action: 9, Args: [][]byte{id[:], make([]byte, i%200)}}
				switch {
				case i%2 == 1:
					r.pps[0].Send(1, serialization.EncodeOne(&p, 0))
				case r.pps[0].SendParcel(1, p):
					direct++
				default:
					// What the parcel layer does when the hook declines.
					fellBack++
					r.pps[0].Send(1, serialization.EncodeOne(&p, 0))
				}
				if i%4 == 0 {
					r.pps[0].BackgroundWork(0)
					r.pps[1].BackgroundWork(0)
				}
			}
			r.pump(t, 30*time.Second, func() bool { return len(r.received[1]) >= n })
			for i := 0; i < 200; i++ { // room for a duplicate to surface
				r.pps[0].BackgroundWork(0)
				r.pps[1].BackgroundWork(0)
			}
			if direct == 0 || fellBack == 0 {
				t.Fatalf("%d direct sends, %d fallbacks: want both mid-stream", direct, fellBack)
			}
			if r.pps[0].Stats().SendRetries == 0 {
				t.Fatal("no connection reached the retry list")
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			seen := make([]int, n)
			for _, m := range r.received[1] {
				var buf serialization.DecodeBuf
				ps, err := serialization.DecodeInto(&buf, m)
				if err != nil {
					t.Fatal(err)
				}
				id := binary.LittleEndian.Uint64(ps[0].Args[0])
				if id >= n || len(ps[0].Args[1]) != int(id)%200 {
					t.Fatalf("message %d arrived with the wrong shape", id)
				}
				seen[id]++
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("message %d delivered %d times", id, c)
				}
			}
		})
	}
}
