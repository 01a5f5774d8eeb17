package parcelport

import (
	"sync"
	"sync/atomic"
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

// fakeClock replaces an aggregator's clock: time moves only when the test
// advances it, and every read is counted.
type fakeClock struct {
	ns    int64
	reads int
}

func (c *fakeClock) install(a *Aggregator) {
	a.now = func() int64 { c.reads++; return c.ns }
}

func msgOf(payload []byte) *serialization.Message {
	return &serialization.Message{NonZeroCopy: append([]byte(nil), payload...)}
}

// TestAggregatorBundlesSmallMessages: sub-messages handed to Send coalesce
// into one bundle transfer, and what the inner port received decodes, through
// the receiver's one decode, to the parcels that went in.
func TestAggregatorBundlesSmallMessages(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 2, AggConfig{FlushBytes: 1 << 20})
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
	a := NewAggregator(inner, 2, AggConfig{FlushBytes: 1 << 20})
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
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 64, MaxSub: 32})
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

// TestAggregatorFlushRule pins the one flush rule on a fake clock: a bundle
// leaves when its producer has been quiet for aggQuietGap, by size while the
// producer keeps appending, and by the FlushDelay cap under a trickle that
// never pauses for a whole gap and never fills the buffer.
func TestAggregatorFlushRule(t *testing.T) {
	type flushes struct{ size, quiet, age, bundles uint64 }
	const gap = aggQuietGap
	cases := []struct {
		name    string
		cfg     AggConfig
		appends int     // 20 B messages, each followed by...
		step    int64   // ...this clock advance and a FlushStale pass
		during  flushes // counters after the last of those passes
		tail    int64   // one more advance and pass
		after   flushes
	}{
		{
			name:    "lone frame waits out one quiet gap, no less",
			cfg:     AggConfig{FlushBytes: 1 << 20, FlushDelay: time.Hour},
			appends: 1, step: gap - 1,
			tail: 1, after: flushes{quiet: 1, bundles: 1},
		},
		{
			// 8 B bundle header + 3 × (4 B + 20 B) crosses 64 B.
			name:    "appends every gap/2 leave by size only",
			cfg:     AggConfig{FlushBytes: 64, MaxSub: 32, FlushDelay: time.Hour},
			appends: 9, step: gap / 2,
			during: flushes{size: 3, bundles: 3},
			tail:   gap, after: flushes{size: 3, bundles: 3},
		},
		{
			// The 20th pass finds the first frame 20 × gap/2 old.
			name:    "sub-gap trickle leaves at the age cap",
			cfg:     AggConfig{FlushBytes: 1 << 20, FlushDelay: time.Duration(10 * gap)},
			appends: 20, step: gap / 2,
			during: flushes{age: 1, bundles: 1},
			tail:   gap, after: flushes{age: 1, bundles: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := &fakePP{}
			a := NewAggregator(inner, 1, tc.cfg)
			clk := &fakeClock{ns: 100}
			clk.install(a)
			got := func() flushes {
				st := a.Stats()
				return flushes{st.SizeFlushes, st.QuietFlushes, st.AgeFlushes, st.Bundles}
			}
			for i := 0; i < tc.appends; i++ {
				a.Send(0, msgOf(make([]byte, 20)))
				clk.ns += tc.step
				a.FlushStale()
			}
			if f := got(); f != tc.during {
				t.Fatalf("while appending: flushes %+v, want %+v", f, tc.during)
			}
			clk.ns += tc.tail
			a.FlushStale()
			if f := got(); f != tc.after {
				t.Fatalf("after the tail: flushes %+v, want %+v", f, tc.after)
			}
			if q, st := a.QueuedSubMessages(0), a.Stats(); q != 0 || st.BundledMessages != uint64(tc.appends) {
				t.Fatalf("%d frames still queued, %d bundled of %d", q, st.BundledMessages, tc.appends)
			}
		})
	}
}

// TestAggregatorFlushStaleIdleReadsNoClock: a pass with nothing pending
// costs one atomic load per destination and no clock read; a pass with work
// reads the clock once however many destinations are pending.
func TestAggregatorFlushStaleIdleReadsNoClock(t *testing.T) {
	a := NewAggregator(&fakePP{}, 3, AggConfig{})
	clk := &fakeClock{}
	clk.install(a)
	if a.FlushStale() || clk.reads != 0 {
		t.Fatalf("idle pass flushed or read the clock (%d reads)", clk.reads)
	}
	a.Send(0, msgOf([]byte("a")))
	a.Send(2, msgOf([]byte("b")))
	clk.reads = 0
	if a.FlushStale() || clk.reads != 1 {
		t.Fatalf("pass over 2 pending destinations: %d clock reads, want 1 and no flush yet", clk.reads)
	}
}

func TestAggregatorQuietFlushViaBackgroundWork(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 1 << 20})
	clk := &fakeClock{}
	clk.install(a)
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("lonely")))
	if a.BackgroundWork(0) || len(inner.sends()) != 0 {
		t.Fatal("message flushed while its producer could still be appending")
	}
	clk.ns += aggQuietGap
	if !a.BackgroundWork(0) {
		t.Fatal("BackgroundWork reported no work despite a quiet buffer")
	}
	if len(inner.sends()) != 1 {
		t.Fatalf("quiet flush produced %d transfers", len(inner.sends()))
	}
	if st := a.Stats(); st.QuietFlushes != 1 || st.AgeFlushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if inner.bg != 2 {
		t.Fatal("inner BackgroundWork not chained")
	}
}

// TestAggregatorSendPollPerFilledBundle: the send poll runs once for every
// bundle a producer's append filled, by size or by the cap and through Send
// or SendParcel, and never for a bundle a poller flushed as quiet.
func TestAggregatorSendPollPerFilledBundle(t *testing.T) {
	inner := &fakePP{}
	// Three 1-byte messages reach the cap before 64 bytes; two parcels pass
	// 64 bytes before the cap.
	p := serialization.Parcel{Action: 1, Args: [][]byte{make([]byte, 2)}}
	if need := serialization.EncodedSizeInline(&p); need > 64 || 2*need < 64 {
		t.Fatalf("parcel encodes to %d bytes; the test needs 32..64", need)
	}
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 64, MaxSub: 64, MaxQueued: 3})
	clk := &fakeClock{}
	clk.install(a)
	polls := 0
	a.SetSendPoll(func() bool {
		if len(inner.sends()) != polls+1 {
			t.Errorf("poll %d ran with %d bundles sent", polls+1, len(inner.sends()))
		}
		polls++
		return false
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a.Send(0, msgOf([]byte{byte(i)})) // 2 cap flushes, 1 left buffered
	}
	for i := 0; i < 5; i++ {
		if !a.SendParcel(0, p) {
			t.Fatal("SendParcel declined a small parcel")
		}
	}
	st := a.Stats()
	if st.CapFlushes == 0 || st.SizeFlushes == 0 {
		t.Fatalf("stats = %+v, want cap and size flushes", st)
	}
	if filled := int(st.CapFlushes + st.SizeFlushes); polls != filled {
		t.Fatalf("%d polls for %d filled bundles", polls, filled)
	}
	clk.ns += aggQuietGap
	if !a.FlushStale() {
		t.Fatal("no quiet flush of the buffered remainder")
	}
	if filled := int(st.CapFlushes + st.SizeFlushes); polls != filled {
		t.Fatalf("quiet flush ran the send poll (%d polls, %d filled bundles)", polls, filled)
	}
}

func TestAggregatorCapBackpressure(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxQueued: 3})
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

// TestAggregatorLoneMessageAfterSilence: however long a destination has been
// silent, a small message is buffered, never sent directly on a guess that
// no partner will follow; it costs one quiet gap and leaves as a bundle.
func TestAggregatorLoneMessageAfterSilence(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 1 << 20, FlushDelay: time.Hour})
	clk := &fakeClock{ns: int64(time.Hour)}
	clk.install(a)
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("first ever")))
	if len(inner.sends()) != 0 || a.QueuedSubMessages(0) != 1 {
		t.Fatal("a message after silence bypassed the buffer")
	}
	clk.ns += aggQuietGap
	a.FlushStale()
	sends := inner.sends()
	if len(sends) != 1 || wire.BundleFrameCount(sends[0].m.NonZeroCopy) != 1 {
		t.Fatalf("%d transfers after the quiet pass, want one 1-frame bundle", len(sends))
	}
	if st := a.Stats(); st.DirectSends != 0 || st.QuietFlushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAggregatorLargeMessageFlushesFirst(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxSub: 16})
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
	a := NewAggregator(inner, 3, AggConfig{FlushBytes: 1 << 20})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("a")))
	a.Send(2, msgOf([]byte("b")))
	a.Stop()
	if got := len(inner.sends()); got != 2 {
		t.Fatalf("Stop flushed %d buffers, want 2", got)
	}
	// Shutdown drains credit StopFlushes only: no poller judged these
	// buffers quiet or expired.
	if st := a.Stats(); st.StopFlushes != 2 || st.QuietFlushes != 0 || st.AgeFlushes != 0 {
		t.Fatalf("stop / quiet / age flushes = %d / %d / %d, want 2 / 0 / 0", st.StopFlushes, st.QuietFlushes, st.AgeFlushes)
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
	a := NewAggregator(inner, 2, AggConfig{FlushBytes: 1 << 20})
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
	var buf serialization.DecodeBuf
	delivered, err := serialization.DecodeInto(&buf, sends[0].m)
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

// TestAggregatorSendParcelFallbacks pins the only cases SendParcel refuses,
// leaving them to the ordinary encode-then-Send path: a first-ever small
// parcel is not one of them.
func TestAggregatorSendParcelFallbacks(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 2, AggConfig{FlushBytes: 1 << 20, MaxSub: 64, FlushDelay: time.Hour})
	clk := &fakeClock{ns: int64(time.Hour)}
	clk.install(a)
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
	if !a.SendParcel(1, small) {
		t.Fatal("SendParcel rejected the first small parcel to a silent destination")
	}
	clk.ns += aggQuietGap
	if !a.FlushStale() || len(inner.sends()) != 1 {
		t.Fatalf("%d transfers after the quiet pass, want 1", len(inner.sends()))
	}
	if st := a.Stats(); st.BundledMessages != 1 || st.QuietFlushes != 1 || st.DirectSends != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorPollerRacesSenders: FlushStale judges a destination from
// atomics the senders write under its lock, then re-judges under that lock.
// With pollers spinning on the wall clock against concurrent senders, every
// frame still leaves exactly once, in a bundle some rule accounted for.
func TestAggregatorPollerRacesSenders(t *testing.T) {
	inner := &frameCountPP{}
	a := NewAggregator(inner, 2, AggConfig{FlushBytes: 256, MaxSub: 64, FlushDelay: 20 * time.Microsecond})
	const senders, perSender = 4, 2000
	var sending, polling sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		polling.Add(1)
		go func() {
			defer polling.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.FlushStale()
				}
			}
		}()
	}
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func(s int) {
			defer sending.Done()
			for i := 0; i < perSender; i++ {
				if i%2 == 0 {
					a.Send(s%2, msgOf([]byte("sent")))
				} else if !a.SendParcel(s%2, serialization.Parcel{Dest: s % 2, Action: 1}) {
					t.Error("SendParcel refused a small parcel")
				}
			}
		}(s)
	}
	sending.Wait()
	close(stop)
	polling.Wait()
	a.Stop()
	st := a.Stats()
	if frames := inner.frames.Load(); frames != senders*perSender || st.BundledMessages != uint64(frames) {
		t.Fatalf("%d frames left in bundles, %d bundled, want %d", frames, st.BundledMessages, senders*perSender)
	}
	if sum := st.SizeFlushes + st.QuietFlushes + st.AgeFlushes + st.CapFlushes + st.StopFlushes; sum != st.Bundles || int64(sum) != inner.bundles.Load() {
		t.Fatalf("%d bundles sent, %d counted, %d attributed to a rule: %+v", inner.bundles.Load(), st.Bundles, sum, st)
	}
}

// frameCountPP counts bundles and their frames as they are sent: Done
// recycles a bundle's buffer, so it cannot be inspected afterwards.
type frameCountPP struct {
	fakePP
	bundles, frames atomic.Int64
}

func (f *frameCountPP) Send(_ int, m *serialization.Message) {
	f.bundles.Add(1)
	f.frames.Add(int64(wire.BundleFrameCount(m.NonZeroCopy)))
	m.Done()
}
