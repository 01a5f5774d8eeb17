package parcelport

import (
	"sync"
	"testing"
	"time"

	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// fakePP records sends and loops them back to its deliver callback on
// demand; the minimal inner Parcelport for aggregation tests.
type fakePP struct {
	mu      sync.Mutex
	sent    []fakeSend
	deliver DeliverFunc
	bg      int
}

type fakeSend struct {
	dst int
	m   *serialization.Message
}

func (f *fakePP) Name() string              { return "fake" }
func (f *fakePP) Start(d DeliverFunc) error { f.deliver = d; return nil }
func (f *fakePP) Stop()                     {}
func (f *fakePP) BackgroundWork(int) bool   { f.mu.Lock(); f.bg++; f.mu.Unlock(); return false }
func (f *fakePP) Send(dst int, m *serialization.Message) {
	f.mu.Lock()
	f.sent = append(f.sent, fakeSend{dst: dst, m: m})
	f.mu.Unlock()
	m.Done()
}

func (f *fakePP) sends() []fakeSend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeSend(nil), f.sent...)
}

// loopback replays every recorded send into the deliver callback, as if the
// wire echoed it to the peer.
func (f *fakePP) loopback() {
	for _, s := range f.sends() {
		f.deliver(&serialization.Message{
			NonZeroCopy:  s.m.NonZeroCopy,
			Transmission: s.m.Transmission,
			ZeroCopy:     s.m.ZeroCopy,
		})
	}
}

// warmAgg returns an aggregator whose destinations never read as cold, so
// tests exercise the buffering path deterministically.
func warmAgg(inner Parcelport, dests int, cfg AggConfig) *Aggregator {
	if cfg.ColdIdle == 0 {
		cfg.ColdIdle = time.Hour
	}
	if cfg.FlushDelay == 0 {
		cfg.FlushDelay = time.Hour
	}
	return NewAggregator(inner, dests, cfg)
}

func msgOf(payload []byte) *serialization.Message {
	return &serialization.Message{NonZeroCopy: append([]byte(nil), payload...)}
}

// TestAggregatorBundlesSmallMessages: sub-messages handed to Send coalesce
// into one bundle transfer, and what the inner port received decodes, through
// the receiver's one decode, to the parcels that went in.
func TestAggregatorBundlesSmallMessages(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 2, AggConfig{FlushBytes: 1 << 20})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 5; i++ {
		m := serialization.EncodeOne(&serialization.Parcel{
			Source: 0, Dest: 1, Action: uint32(i), Args: [][]byte{{byte(i), 0xee}},
		}, 0)
		m.OnSent = func() { done++ }
		a.Send(1, m)
	}
	if done != 5 {
		t.Fatalf("Done fired for %d/5 sub-messages at copy time", done)
	}
	if got := len(inner.sent); got != 0 {
		t.Fatalf("%d sends reached the inner parcelport before any flush", got)
	}
	if q := a.QueuedSubMessages(1); q != 5 {
		t.Fatalf("QueuedSubMessages = %d, want 5", q)
	}
	a.flushDest(1, &a.stats.ageFl)
	sends := inner.sends()
	if len(sends) != 1 {
		t.Fatalf("flush produced %d transfers, want 1 bundle", len(sends))
	}
	if !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatal("flushed transfer is not a bundle")
	}
	var buf serialization.DecodeBuf
	ps, err := serialization.DecodeInto(&buf, sends[0].m)
	if err != nil || len(ps) != 5 || buf.Frames() != 5 {
		t.Fatalf("decoded %d parcels in %d frames, err %v; want 5 in 5", len(ps), buf.Frames(), err)
	}
	for i, p := range ps {
		if p.Action != uint32(i) || len(p.Args) != 1 || len(p.Args[0]) != 2 || p.Args[0][0] != byte(i) {
			t.Fatalf("parcel %d = %+v", i, p)
		}
	}
	// The receiver credits the frames once per decoded bundle.
	a.NoteUnbundled(buf.Frames())
	st := a.Stats()
	if st.BundledMessages != 5 || st.Bundles != 1 || st.Unbundled != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorStartPassesDeliverThrough: the aggregation layer adds
// nothing to the receive path — the inner port gets the caller's callback,
// and a bundle reaches it as the one transfer it arrived as.
func TestAggregatorStartPassesDeliverThrough(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 2, AggConfig{FlushBytes: 1 << 20})
	var got []*serialization.Message
	if err := a.Start(func(m *serialization.Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !a.SendParcel(1, serialization.Parcel{Source: 0, Dest: 1, Action: 7}) {
			t.Fatal("SendParcel rejected a small parcel for a warm destination")
		}
	}
	a.Stop()
	inner.loopback()
	if len(got) != 1 || wire.BundleFrameCount(got[0].NonZeroCopy) != 3 {
		t.Fatalf("deliver saw %d transfers, want the one 3-frame bundle", len(got))
	}
}

func TestAggregatorSizeFlush(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 64, MaxSub: 32})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 20)
	for i := 0; i < 10; i++ {
		a.Send(0, msgOf(payload))
	}
	if len(inner.sends()) == 0 {
		t.Fatal("size threshold never flushed")
	}
	if a.Stats().SizeFlushes == 0 {
		t.Fatal("SizeFlushes counter never bumped")
	}
	for _, s := range inner.sends() {
		if len(s.m.NonZeroCopy) < 64 {
			t.Fatalf("size-flushed bundle only %dB", len(s.m.NonZeroCopy))
		}
	}
}

func TestAggregatorAgeFlushViaBackgroundWork(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{
		FlushBytes: 1 << 20,
		FlushDelay: time.Nanosecond,
		ColdIdle:   time.Hour,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("lonely")))
	if len(inner.sends()) != 0 {
		t.Fatal("message flushed before its age deadline")
	}
	time.Sleep(time.Millisecond)
	if !a.BackgroundWork(0) {
		t.Fatal("BackgroundWork reported no work despite a stale buffer")
	}
	if len(inner.sends()) != 1 {
		t.Fatalf("age flush produced %d transfers", len(inner.sends()))
	}
	if a.Stats().AgeFlushes == 0 {
		t.Fatal("AgeFlushes counter never bumped")
	}
	if inner.bg == 0 {
		t.Fatal("inner BackgroundWork not chained")
	}
}

func TestAggregatorCapBackpressure(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxQueued: 3})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a.Send(0, msgOf([]byte{byte(i)}))
	}
	if got := a.Stats().CapFlushes; got != 2 {
		t.Fatalf("CapFlushes = %d, want 2 (7 sends, cap 3)", got)
	}
	if got := len(inner.sends()); got != 2 {
		t.Fatalf("%d transfers, want 2 capped bundles", got)
	}
	if q := a.QueuedSubMessages(0); q != 1 {
		t.Fatalf("%d sub-messages left buffered, want 1", q)
	}
}

func TestAggregatorColdPassthrough(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{
		FlushBytes: 1 << 20,
		FlushDelay: time.Hour,
		ColdIdle:   time.Nanosecond,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	a.Send(0, msgOf([]byte("cold")))
	sends := inner.sends()
	if len(sends) != 1 || wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatalf("cold send not passed straight through: %d sends", len(sends))
	}
	st := a.Stats()
	if st.ColdSends != 1 || st.DirectSends != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAggregatorLargeMessageFlushesFirst(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxSub: 16})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("small")))
	big := msgOf(make([]byte, 64)) // over MaxSub
	a.Send(0, big)
	sends := inner.sends()
	if len(sends) != 2 {
		t.Fatalf("%d transfers, want buffered bundle then passthrough", len(sends))
	}
	if !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatal("buffered bundle did not flush ahead of the big message")
	}
	if wire.IsBundle(sends[1].m.NonZeroCopy) || len(sends[1].m.NonZeroCopy) != 64 {
		t.Fatal("big message did not pass through untouched")
	}
	if a.Stats().OrderFlushes != 1 {
		t.Fatalf("OrderFlushes = %d, want 1", a.Stats().OrderFlushes)
	}
	// Zero-copy messages must also bypass bundling.
	zc := &serialization.Message{
		NonZeroCopy: []byte("hdr"),
		ZeroCopy:    [][]byte{make([]byte, 8)},
	}
	a.Send(0, zc)
	if s := inner.sends(); len(s[len(s)-1].m.ZeroCopy) != 1 {
		t.Fatal("zero-copy message mangled by the aggregator")
	}
}

func TestAggregatorStopFlushes(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 3, AggConfig{FlushBytes: 1 << 20})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("a")))
	a.Send(2, msgOf([]byte("b")))
	a.Stop()
	if got := len(inner.sends()); got != 2 {
		t.Fatalf("Stop flushed %d buffers, want 2", got)
	}
	// Shutdown drains must credit the dedicated StopFlushes counter, not
	// AgeFlushes: these buffers never reached their FlushDelay.
	st := a.Stats()
	if st.StopFlushes != 2 {
		t.Fatalf("StopFlushes = %d, want 2", st.StopFlushes)
	}
	if st.AgeFlushes != 0 {
		t.Fatalf("AgeFlushes = %d, want 0 (shutdown drains polluted the age counter)", st.AgeFlushes)
	}
}

func TestAggregatorName(t *testing.T) {
	a := NewAggregator(&fakePP{}, 1, AggConfig{})
	if a.Name() != "fake_agg" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.Inner().Name() != "fake" {
		t.Fatalf("Inner().Name = %q", a.Inner().Name())
	}
}

// TestAggregatorSendParcelDirectEncode covers the scratch-free fast path:
// parcels encoded straight into the bundle buffer must interleave with
// pre-encoded Send messages in the same bundle and decode identically on
// the receive side.
func TestAggregatorSendParcelDirectEncode(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 2, AggConfig{FlushBytes: 1 << 20})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}

	if !a.SendParcel(1, serialization.Parcel{
		Source: 0, Dest: 1, Action: 7, Args: [][]byte{[]byte("alpha")},
	}) {
		t.Fatal("SendParcel rejected a small parcel for a warm destination")
	}
	// A pre-encoded message rides the same bundle.
	em := serialization.EncodeOne(&serialization.Parcel{
		Source: 0, Dest: 1, Action: 8, Args: [][]byte{[]byte("beta")},
	}, 0)
	em.RecycleOnSent = true
	a.Send(1, em)
	if !a.SendParcel(1, serialization.Parcel{
		Source: 0, Dest: 1, Action: 9, ContID: 42, Args: [][]byte{nil, []byte("gamma")},
	}) {
		t.Fatal("SendParcel rejected the third parcel")
	}

	if q := a.QueuedSubMessages(1); q != 3 {
		t.Fatalf("QueuedSubMessages = %d, want 3", q)
	}
	a.flushDest(1, &a.stats.ageFl)
	sends := inner.sends()
	if len(sends) != 1 || !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatalf("flush produced %d transfers (bundle=%v), want 1 bundle",
			len(sends), len(sends) == 1 && wire.IsBundle(sends[0].m.NonZeroCopy))
	}
	delivered, err := serialization.Decode(sends[0].m)
	if err != nil || len(delivered) != 3 {
		t.Fatalf("decoded %d parcels, err %v; want 3", len(delivered), err)
	}
	if p := delivered[0]; p.Action != 7 || string(p.Args[0]) != "alpha" {
		t.Fatalf("parcel 0 = %+v", p)
	}
	if p := delivered[1]; p.Action != 8 || string(p.Args[0]) != "beta" {
		t.Fatalf("parcel 1 = %+v", p)
	}
	if p := delivered[2]; p.Action != 9 || p.ContID != 42 ||
		len(p.Args) != 2 || len(p.Args[0]) != 0 || string(p.Args[1]) != "gamma" {
		t.Fatalf("parcel 2 = %+v", p)
	}
	if st := a.Stats(); st.BundledMessages != 3 || st.Bundles != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorSendParcelFallbacks pins the cases SendParcel must refuse,
// leaving them to the ordinary encode-then-Send path.
func TestAggregatorSendParcelFallbacks(t *testing.T) {
	inner := &fakePP{}
	const coldIdle = 50 * time.Millisecond
	a := NewAggregator(inner, 2, AggConfig{
		FlushBytes: 1 << 20, MaxSub: 64,
		ColdIdle: coldIdle, FlushDelay: time.Hour,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	small := serialization.Parcel{Dest: 1, Action: 1, Args: [][]byte{[]byte("x")}}
	if a.SendParcel(5, small) {
		t.Fatal("SendParcel accepted an out-of-range destination")
	}
	big := serialization.Parcel{Dest: 1, Action: 1, Args: [][]byte{make([]byte, 128)}}
	if a.SendParcel(1, big) {
		t.Fatal("SendParcel accepted a parcel above MaxSub")
	}
	time.Sleep(2 * coldIdle) // let the destination go cold
	if a.SendParcel(1, small) {
		t.Fatal("SendParcel accepted a cold destination")
	}
	// Warm the destination through Send's cold-direct path, then the very
	// next parcel may bundle.
	a.Send(1, msgOf([]byte("warmup")))
	if !a.SendParcel(1, small) {
		t.Fatal("SendParcel rejected a warm destination")
	}
	if st := a.Stats(); st.BundledMessages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
