package core

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// capturePort is an inner parcelport that keeps what it is asked to send.
type capturePort struct{ sent [][]byte }

func (c *capturePort) Name() string                       { return "capture" }
func (c *capturePort) Start(parcelport.DeliverFunc) error { return nil }
func (c *capturePort) Stop()                              {}
func (c *capturePort) BackgroundWork(int) bool            { return false }
func (c *capturePort) Send(_ int, m *serialization.Message) {
	c.sent = append(c.sent, append([]byte(nil), m.NonZeroCopy...))
	m.Done()
}

// indexedParcel is parcel i of a test transfer: its index rides in a 4-byte
// prefix of the one argBytes argument.
func indexedParcel(i, argBytes int, action uint32) serialization.Parcel {
	arg := make([]byte, argBytes)
	binary.LittleEndian.PutUint32(arg, uint32(i))
	return serialization.Parcel{Source: 1, Dest: 0, Action: action, Args: [][]byte{arg}}
}

// aggBundle builds the HPXB bundle the sender-side aggregation layer produces
// for n indexed parcels of action to locality 0: through SendParcel (the fast path, one
// parcel encoded in place per frame) or through Send (a pre-encoded message
// copied in per frame).
func aggBundle(t testing.TB, n, argBytes int, action uint32, viaSend bool) []byte {
	t.Helper()
	var port capturePort
	a := parcelport.NewAggregator(&port, 2, parcelport.AggConfig{
		FlushBytes: 1 << 20, MaxSub: 1 << 19, FlushDelay: time.Hour,
	})
	for i := 0; i < n; i++ {
		p := indexedParcel(i, argBytes, action)
		if viaSend {
			m := serialization.EncodeOne(&p, 0)
			m.RecycleOnSent = true
			a.Send(0, m)
		} else if !a.SendParcel(0, p) {
			t.Fatal("SendParcel refused a small parcel for a warm destination")
		}
	}
	a.Stop() // flushes
	if len(port.sent) != 1 || wire.BundleFrameCount(port.sent[0]) != n {
		t.Fatalf("aggregator produced %d transfers, want one %d-frame bundle", len(port.sent), n)
	}
	return port.sent[0]
}

// frameAt returns where frame i's length prefix starts in bundle b.
func frameAt(b []byte, i int) int {
	off := wire.BundleHeaderSize
	for ; i > 0; i-- {
		off += wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(b[off:]))
	}
	return off
}

// TestDeliverBundleOneDelivery drives whole transfers through deliver — a
// plain message, bundles built by Aggregator.SendParcel and by Send, and the
// ways a bundle can arrive damaged — and checks the bundle-granular contract:
// every frame before the first corrupt one executes exactly once, the rest
// drop, a damaged transfer counts one decode error, AggStats.Unbundled grows
// by the frames delivered, and the receive buffer is released exactly once.
func TestDeliverBundleOneDelivery(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", Aggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	var seen [64]atomic.Uint32
	var ran atomic.Uint64
	mark := func(_ *Locality, args [][]byte) [][]byte {
		seen[binary.LittleEndian.Uint32(args[0])].Add(1)
		ran.Add(1)
		return nil
	}
	inl := rt.MustRegisterInlineAction("bundle_inline", mark)
	spawned := rt.MustRegisterAction("bundle_spawned", mark)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)

	var plain []*serialization.Parcel
	for i := 0; i < 5; i++ {
		p := indexedParcel(i, 64, inl)
		plain = append(plain, &p)
	}
	damaged := func(f func(b []byte) []byte) []byte { return f(aggBundle(t, 8, 64, inl, false)) }
	cases := []struct {
		name   string
		bytes  []byte
		good   int // leading parcels that must execute
		frames int // frames credited to AggStats.Unbundled
		bad    bool
	}{
		{"plain message", serialization.Encode(plain, 0).NonZeroCopy, 5, 0, false},
		{"1 frame SendParcel", aggBundle(t, 1, 64, inl, false), 1, 1, false},
		{"8 frames SendParcel", aggBundle(t, 8, 64, inl, false), 8, 8, false},
		{"39 frames SendParcel", aggBundle(t, 39, 64, inl, false), 39, 39, false},
		{"8 frames Send", aggBundle(t, 8, 64, inl, true), 8, 8, false},
		{"39 frames Send, spawned action", aggBundle(t, 39, 64, spawned, true), 39, 39, false},
		{"truncated frame header", damaged(func(b []byte) []byte { return b[:frameAt(b, 5)+2] }), 5, 5, true},
		{"payload length past the end", damaged(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameAt(b, 6):], 1<<20)
			return b
		}), 6, 6, true},
		{"trailing garbage", damaged(func(b []byte) []byte { return append(b, 0xde, 0xad) }), 8, 8, true},
		{"bad HPX1 magic mid-bundle", damaged(func(b []byte) []byte {
			b[frameAt(b, 3)+wire.FrameHeaderSize] ^= 0xff
			return b
		}), 3, 3, true},
		{"bad HPX1 magic in frame 0", damaged(func(b []byte) []byte {
			b[frameAt(b, 0)+wire.FrameHeaderSize] ^= 0xff
			return b
		}), 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range seen {
				seen[i].Store(0)
			}
			owner := &stubOwner{}
			ran0, errs0, unb0 := ran.Load(), l.DecodeErrors(), l.agg.Stats().Unbundled
			exec0 := l.ParcelsExecuted()
			l.deliver(&serialization.Message{NonZeroCopy: tc.bytes, Owner: owner})
			deadline := time.Now().Add(10 * time.Second)
			for (ran.Load() < ran0+uint64(tc.good) || owner.releases.Load() == 0) && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			l.sched.WaitIdle(time.Second)
			for i := range seen {
				want := uint32(0)
				if i < tc.good {
					want = 1
				}
				if got := seen[i].Load(); got != want {
					t.Fatalf("parcel %d executed %d times, want %d", i, got, want)
				}
			}
			if got := l.ParcelsExecuted() - exec0; got != uint64(tc.good) {
				t.Fatalf("ParcelsExecuted grew by %d, want %d", got, tc.good)
			}
			wantErrs := uint64(0)
			if tc.bad {
				wantErrs = 1
			}
			if got := l.DecodeErrors() - errs0; got != wantErrs {
				t.Fatalf("DecodeErrors grew by %d, want %d", got, wantErrs)
			}
			if got := l.agg.Stats().Unbundled - unb0; got != uint64(tc.frames) {
				t.Fatalf("AggStats.Unbundled grew by %d, want %d", got, tc.frames)
			}
			if rel, ret := owner.releases.Load(), owner.retains.Load(); rel != 1 || ret != 0 {
				t.Fatalf("owner: %d releases, %d retains; want exactly one release and no retain", rel, ret)
			}
		})
	}
}

// TestDeliverHPXBBundleZeroAllocs is the allocation gate for the shape the
// aggregated fast path really produces: a full default bundle — 39 frames of
// one 64 B parcel each, written by Aggregator.SendParcel — delivered and run
// to completion inline must not allocate once pools are warm, and must be one
// delivery (one owner release per bundle, no owner retain).
func TestDeliverHPXBBundleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race builds")
	}
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", Aggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("hpxb_zeroalloc", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const frames = 39 // 4096 B flush ÷ 105 B frame
	owner := &stubOwner{}
	m := &serialization.Message{NonZeroCopy: aggBundle(t, frames, 64, act, false), Owner: owner}
	// Inline delivery is synchronous except when a preempted drain trips the
	// wall cap and the rest of that one batch spills; wait that out.
	deliverOnce := func() {
		want := ran.Load() + frames
		rel := owner.releases.Load() + 1
		l.deliver(m)
		for ran.Load() < want || owner.releases.Load() < rel {
			runtime.Gosched()
		}
	}
	// Warm the pools, and the action's service estimate: a cold first run
	// may measure heavy and take a few spawned samples to come back.
	for i := 0; i < 8 || rt.actionSvc[act].Load() >= inlineHeavyNs; i++ {
		if i == 1000 {
			t.Fatal("a no-op action never settled on the inline lane")
		}
		deliverOnce()
	}
	l.sched.WaitIdle(time.Second)
	inline0 := l.InlineExecuted()
	const runs = 50
	avg := testing.AllocsPerRun(runs, deliverOnce)
	if avg != 0 {
		t.Fatalf("inline delivery of a warm %d-frame HPXB bundle allocates %.1f times per run, want 0", frames, avg)
	}
	// AllocsPerRun runs the function once more to warm up.
	if got, all := l.InlineExecuted()-inline0, uint64((runs+1)*frames); got < all*9/10 {
		t.Fatalf("%d of %d parcels ran inline: the gate did not measure the inline lane", got, all)
	}
	if got := owner.retains.Load(); got != 0 {
		t.Fatalf("owner retains = %d, want 0: a bundle is one owner reference", got)
	}
}

// TestDeliverUnknownActionCounted: a parcel whose action id is unregistered
// is dropped, counted and reported; the parcels around it in the
// same bundle still run.
func TestDeliverUnknownActionCounted(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 1, Parcelport: "lci", Aggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("known", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	b := aggBundle(t, 4, 16, act, false)
	// Frame 2's parcel names an action nobody registered.
	binary.LittleEndian.PutUint32(b[frameAt(b, 2)+wire.FrameHeaderSize+8:], 9999)
	owner := &stubOwner{}
	l.deliver(&serialization.Message{NonZeroCopy: b, Owner: owner})
	for deadline := time.Now().Add(10 * time.Second); owner.releases.Load() == 0 && time.Now().Before(deadline); {
		runtime.Gosched() // a cold first run may spill the rest to spawned tasks
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d of the 3 known parcels ran", got)
	}
	if got := l.UnknownActionDrops(); got != 1 {
		t.Fatalf("UnknownActionDrops = %d, want 1", got)
	}
	if got := owner.releases.Load(); got != 1 {
		t.Fatalf("owner releases = %d, want 1", got)
	}
	if txt := rt.StatsText(); !strings.Contains(txt, "unknown-action drops 1") {
		t.Fatalf("StatsText does not surface the drop:\n%s", txt)
	}
}

// TestParcelsExecutedCountsBeforeAction: ParcelsExecuted already includes an
// invocation when its action runs, on both lanes. Observers lean on that
// order — the benchmark's exactly-once check reads the counter as soon as
// the last action's effect is visible.
func TestParcelsExecutedCountsBeforeAction(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", Aggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	var ran, behind atomic.Uint64
	check := func(l *Locality, _ [][]byte) [][]byte {
		if n := ran.Add(1); l.ParcelsExecuted() < n {
			behind.Add(1)
		}
		return nil
	}
	inl := rt.MustRegisterInlineAction("counted_inline", check)
	spawned := rt.MustRegisterAction("counted_spawned", check)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	for _, act := range []uint32{inl, spawned} {
		want := ran.Load() + 10*39
		for i := 0; i < 10; i++ {
			l.deliver(&serialization.Message{NonZeroCopy: aggBundle(t, 39, 64, act, false)})
		}
		for ran.Load() < want {
			runtime.Gosched()
		}
	}
	if n := behind.Load(); n != 0 {
		t.Fatalf("%d actions ran before ParcelsExecuted counted them", n)
	}
}
