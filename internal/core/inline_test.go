package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInlineDeliveryRunsToCompletion: a bundle of inline-hinted small
// parcels executes synchronously on the delivering goroutine — by the time
// deliver returns, every action ran and the message owner is released.
func TestInlineDeliveryRunsToCompletion(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_noop", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const bundle = 8
	m := benchBundle(bundle, 64, act)
	owner := &stubOwner{}
	m.Owner = owner
	l.deliver(m)
	if got := ran.Load(); got != bundle {
		t.Fatalf("after deliver returned: %d of %d inline actions ran", got, bundle)
	}
	if got := owner.releases.Load(); got != 1 {
		t.Fatalf("owner releases = %d, want 1 (inline batch completed)", got)
	}
	if got := l.InlineExecuted(); got != bundle {
		t.Fatalf("InlineExecuted = %d, want %d", got, bundle)
	}
	if got := l.sched.InlineExecuted(); got != bundle {
		t.Fatalf("scheduler InlineExecuted = %d, want %d", got, bundle)
	}
	if txt := rt.StatsText(); !strings.Contains(txt, "inline lane") {
		t.Fatalf("StatsText does not surface the inline counters:\n%s", txt)
	}
}

// TestInlineDisabled: Config.InlineBudget < 0 restores spawn-always
// delivery even for hinted actions.
func TestInlineDisabled(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", InlineBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_off_noop", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	l.deliver(benchBundle(8, 64, act))
	for ran.Load() < 8 {
		runtime.Gosched()
	}
	if got := l.InlineExecuted(); got != 0 {
		t.Fatalf("InlineExecuted = %d with InlineBudget -1, want 0", got)
	}
}

// TestInlineBudgetCapsPerMessage: with a static budget of 1, exactly one
// parcel per message runs inline and the rest spawn (no spill — partition,
// not demotion).
func TestInlineBudgetCapsPerMessage(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", InlineBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_one_noop", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const msgs, bundle = 5, 8
	for i := 0; i < msgs; i++ {
		l.deliver(benchBundle(bundle, 64, act))
	}
	for ran.Load() < msgs*bundle {
		runtime.Gosched()
	}
	if got := l.InlineExecuted(); got != msgs {
		t.Fatalf("InlineExecuted = %d, want %d (budget 1 per message)", got, msgs)
	}
	if got := l.InlineSpilled(); got != 0 {
		t.Fatalf("InlineSpilled = %d, want 0 (under-budget partition is not a spill)", got)
	}
}

// TestInlineHeavyActionDemoted is the safety escape: an inline-hinted
// action that in fact runs long spills the rest of its batch to spawned
// tasks after its first run and loses eligibility — its first sample seeds
// the service EWMA over the heavy ceiling, and every spawned run it is
// sampled on keeps it there — so one slow action cannot keep stalling the
// completion drain.
func TestInlineHeavyActionDemoted(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_heavy", func(*Locality, [][]byte) [][]byte {
		time.Sleep(300 * time.Microsecond) // far above the 20µs heavy ceiling
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const bundle = 4
	l.deliver(benchBundle(bundle, 64, act))
	for ran.Load() < bundle {
		runtime.Gosched()
	}
	// The first run measures heavy (and exceeds the 100µs wall cap), so the
	// remaining three spill.
	if got := l.InlineSpilled(); got == 0 {
		t.Fatal("a heavy inline batch never spilled")
	}
	inlineAfterFirst := l.InlineExecuted()
	if inlineAfterFirst == 0 {
		t.Fatal("no inline run recorded for the first heavy parcel")
	}
	// The EWMA now knows the action is heavy: further messages spawn
	// everything.
	for i := 0; i < 3; i++ {
		l.deliver(benchBundle(bundle, 64, act))
	}
	for ran.Load() < 4*bundle {
		runtime.Gosched()
	}
	if got := l.InlineExecuted(); got != inlineAfterFirst {
		t.Fatalf("heavy action still ran inline after EWMA learned it: %d -> %d", inlineAfterFirst, got)
	}
	if d, r := l.InlineDemotions(), l.InlineReadmissions(); d != 1 || r != 0 {
		t.Fatalf("demotions %d, re-admissions %d; want 1, 0", d, r)
	}
}

// spin burns d of CPU without yielding, the way a compute-heavy action does.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// demoted reports whether the escape currently holds act off the inline
// lane. The tests assert on this state, and on counter *deltas* past a
// warm-up, because a cold first run (or any run under the race detector) may
// legitimately measure heavy and be corrected a few samples later.
func demoted(rt *Runtime, act uint32) bool { return rt.actionSvc[act].Load() >= inlineHeavyNs }

// warmLight runs act, in its light mode, until it holds the inline lane.
func warmLight(t *testing.T, l *Locality, ran *atomic.Uint64, act uint32) {
	t.Helper()
	deliverParcels(l, ran, act, 200, 40)
	for i := 0; demoted(l.rt, act); i++ {
		if i == 100 {
			t.Fatal("a light action never settled on the inline lane")
		}
		deliverParcels(l, ran, act, 8, 1)
	}
}

// deliverParcels feeds n parcels of act through deliver in messages of per
// parcels each and waits until all of them ran, on whichever lane.
func deliverParcels(l *Locality, ran *atomic.Uint64, act uint32, n, per int) {
	want := ran.Load() + uint64(n)
	m := benchBundle(per, 64, act)
	for i := 0; i < n; i += per {
		l.deliver(m)
	}
	for ran.Load() < want {
		runtime.Gosched()
	}
}

// TestInlineOutlierDoesNotLatch is escape test (a): an action that is light
// except for one 200µs run — a preempted drain looks exactly like that —
// keeps the inline lane. One clipped outlier cannot lift a light EWMA to the
// heavy ceiling, so nothing is demoted and the next 1000 parcels stay inline.
func TestInlineOutlierDoesNotLatch(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	var slowOnce atomic.Bool
	act := rt.MustRegisterInlineAction("inline_outlier", func(*Locality, [][]byte) [][]byte {
		if slowOnce.CompareAndSwap(true, false) {
			spin(200 * time.Microsecond)
		}
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	warmLight(t, l, &ran, act) // a light history
	slowOnce.Store(true)
	deliverParcels(l, &ran, act, 40, 40) // one slow run; the rest of its batch spills
	if slowOnce.Load() {
		t.Fatal("the slow run never happened")
	}
	before := l.InlineExecuted()
	deliverParcels(l, &ran, act, 1000, 8) // small messages: a tripped wall cap spills at most 7
	if got := l.InlineExecuted() - before; got < 900 {
		t.Fatalf("%d of the 1000 parcels after one slow run ran inline, want >= 900 (demotions %d, re-admissions %d)",
			got, l.InlineDemotions(), l.InlineReadmissions())
	}
}

// TestInlineRecoversFromDemotion: the escape is not a latch. An action
// demoted while it really was heavy is sampled on the spawned path, and once
// it runs light again a handful of those samples re-admit it.
func TestInlineRecoversFromDemotion(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	var heavy atomic.Bool
	act := rt.MustRegisterInlineAction("inline_phases", func(*Locality, [][]byte) [][]byte {
		if heavy.Load() {
			spin(50 * time.Microsecond)
		}
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	heavy.Store(true)
	deliverParcels(l, &ran, act, 16, 1)
	if !demoted(rt, act) || l.InlineDemotions() != 1 || l.InlineReadmissions() != 0 {
		t.Fatalf("after 16 heavy runs: demoted %v, %d demotions, %d re-admissions; want true, 1, 0",
			demoted(rt, act), l.InlineDemotions(), l.InlineReadmissions())
	}
	heavy.Store(false)
	// Demoted parcels spawn; each is one light sample.
	deliverParcels(l, &ran, act, 16, 1)
	l.sched.WaitIdle(time.Second) // a sample lands after its action returns
	if demoted(rt, act) || l.InlineReadmissions() == 0 {
		t.Fatalf("after 16 light spawned runs: demoted %v, %d re-admissions; want false, >= 1",
			demoted(rt, act), l.InlineReadmissions())
	}
	warmLight(t, l, &ran, act) // let the estimate settle well under the ceiling
	before := l.InlineExecuted()
	deliverParcels(l, &ran, act, 1000, 8)
	if got := l.InlineExecuted() - before; got < 900 {
		t.Fatalf("%d of 1000 parcels ran inline after re-admission, want >= 900", got)
	}
	if txt := rt.StatsText(); !strings.Contains(txt, " demotions, ") || !strings.Contains(txt, "inline_phases=") {
		t.Fatalf("StatsText does not report the escape:\n%s", txt)
	}
}

// TestInlinePersistentlyHeavyStaysSpawned is escape test (b): an action
// with a light history that turns to spinning 50µs on every run is demoted
// within 8 runs, and then stays spawned — its spawned samples keep the EWMA
// over the ceiling.
func TestInlinePersistentlyHeavyStaysSpawned(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	var heavy atomic.Bool
	act := rt.MustRegisterInlineAction("inline_turns_heavy", func(*Locality, [][]byte) [][]byte {
		if heavy.Load() {
			spin(50 * time.Microsecond)
		}
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	warmLight(t, l, &ran, act)
	d0, r0 := l.InlineDemotions(), l.InlineReadmissions()
	heavy.Store(true)
	runs := 0
	for !demoted(rt, act) && runs < 8 {
		deliverParcels(l, &ran, act, 1, 1)
		runs++
	}
	if !demoted(rt, act) {
		t.Fatalf("a 50µs action was not demoted within %d runs", runs)
	}
	before := l.InlineExecuted()
	deliverParcels(l, &ran, act, 1000, 8)
	l.sched.WaitIdle(time.Second)
	if got := l.InlineExecuted() - before; got > 50 {
		t.Fatalf("%d of 1000 parcels of a persistently heavy action ran inline, want <= 50 (>= 95%% spawned)", got)
	}
	if d, r := l.InlineDemotions()-d0, l.InlineReadmissions()-r0; !demoted(rt, act) || d != 1 || r != 0 {
		t.Fatalf("turning heavy: demoted %v, %d demotions, %d re-admissions; want true, 1, 0", demoted(rt, act), d, r)
	}
	if txt := rt.StatsText(); !strings.Contains(txt, "inline_turns_heavy=") || !strings.Contains(txt, "(demoted)") {
		t.Fatalf("StatsText does not show the demoted action's EWMA:\n%s", txt)
	}
}

// TestInlineBlockingActionDemoted is escape test (c): a hinted action that
// *blocks* costs its drain goroutine that one run — other parcels keep
// completing meanwhile — and the sample that run produces demotes it. From
// then on it blocks spawned runners, not drains, and is never re-admitted
// while its spawned samples stay heavy.
func TestInlineBlockingActionDemoted(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	const blockers = 21                      // one admitted inline, twenty spawned
	started := make(chan struct{}, blockers) // one send per blocker run: never blocks
	gate := make(chan struct{})
	var blocked, light atomic.Uint64
	blocker := rt.MustRegisterInlineAction("inline_blocker", func(*Locality, [][]byte) [][]byte {
		started <- struct{}{}
		<-gate
		blocked.Add(1)
		return nil
	})
	lightAct := rt.MustRegisterInlineAction("inline_bystander", func(*Locality, [][]byte) [][]byte {
		light.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	src, dst := rt.Locality(0), rt.Locality(1)
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	bystanders := func(n int) {
		t.Helper()
		want := light.Load() + uint64(n)
		for i := 0; i < n; i++ {
			if err := src.ApplyID(1, lightAct, [][]byte{{1}}); err != nil {
				t.Fatal(err)
			}
		}
		await("bystander parcels to complete beside a blocked action", func() bool { return light.Load() >= want })
	}
	block := func() {
		t.Helper()
		if err := src.ApplyID(1, blocker, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-started:
		case <-time.After(20 * time.Second):
			t.Fatal("blocking action never started")
		}
	}
	// The first run is admitted inline and blocks its drain goroutine, the
	// pinned progress thread. The runtime's watchdog has a helper take over
	// the stuck pass and keep draining: nothing is wedged.
	block()
	bystanders(200)
	gate <- struct{}{}
	await("the blocked run's sample to demote the action", func() bool { return demoted(rt, blocker) })
	if got := blocked.Load(); got != 1 {
		t.Fatalf("blocked runs = %d, want 1", got)
	}
	// Every further run is spawned and held for longer than the heavy
	// ceiling: drains stay free, samples stay heavy, no re-admission.
	bystanders(50) // settle, so only blockers move the inline counter below
	dst.sched.WaitIdle(time.Second)
	inline0 := dst.InlineExecuted()
	for i := 1; i < blockers; i++ {
		block()
		time.Sleep(100 * time.Microsecond)
		gate <- struct{}{}
	}
	await("the spawned blockers to finish", func() bool { return blocked.Load() == blockers })
	dst.sched.WaitIdle(time.Second)
	if got := dst.InlineExecuted() - inline0; got != 0 {
		t.Fatalf("%d runs of a demoted blocking action were admitted inline", got)
	}
	bystanders(200)
	if !demoted(rt, blocker) || dst.InlineDemotions() == 0 {
		t.Fatalf("a blocking action was re-admitted: demoted %v, %d demotions", demoted(rt, blocker), dst.InlineDemotions())
	}
}

// TestInlineVsSpawnEquivalence is the property test: the same randomized
// Apply/Call workload produces identical observable results with the inline
// lane enabled and disabled — same per-id execution counts (exactly once),
// same Call echoes. The lanes may differ in scheduling only.
func TestInlineVsSpawnEquivalence(t *testing.T) {
	type outcome struct {
		counts map[uint32]int
		echoes int
	}
	run := func(t *testing.T, inlineBudget int, seed int64) outcome {
		t.Helper()
		rt, err := NewRuntime(Config{
			Localities:         2,
			WorkersPerLocality: 2,
			Parcelport:         "lci",
			Aggregation:        true,
			InlineBudget:       inlineBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown()
		var mu sync.Mutex
		counts := make(map[uint32]int)
		sink := rt.MustRegisterInlineAction("equiv_sink", func(loc *Locality, args [][]byte) [][]byte {
			if len(args) >= 1 && len(args[0]) >= 4 {
				id := binary.LittleEndian.Uint32(args[0])
				mu.Lock()
				counts[id]++
				mu.Unlock()
			}
			return nil
		})
		echo := rt.MustRegisterInlineAction("equiv_echo", func(loc *Locality, args [][]byte) [][]byte {
			return args
		})
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		l := rt.Locality(0)
		rng := rand.New(rand.NewSource(seed))
		const ops = 400
		echoes := 0
		var futs []func() error
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				idBuf := make([]byte, 4+rng.Intn(64))
				binary.LittleEndian.PutUint32(idBuf, uint32(i))
				if err := l.ApplyID(1, sink, [][]byte{idBuf}); err != nil {
					t.Fatal(err)
				}
			default:
				payload := make([]byte, 1+rng.Intn(128))
				rng.Read(payload)
				f := l.CallID(1, echo, [][]byte{payload})
				futs = append(futs, func() error {
					res, err := f.GetTimeout(30 * time.Second)
					if err != nil {
						return err
					}
					if len(res) != 1 || !bytes.Equal(res[0], payload) {
						return fmt.Errorf("echo mismatch: got %d blobs", len(res))
					}
					return nil
				})
				echoes++
			}
		}
		for _, wait := range futs {
			if err := wait(); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		want := 0
		mu.Lock()
		want = len(counts)
		mu.Unlock()
		_ = want
		for {
			mu.Lock()
			total := 0
			for _, c := range counts {
				total += c
			}
			done := total >= ops-echoes
			mu.Unlock()
			if done || time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
		if inlineBudget >= 0 {
			if rt.Locality(1).InlineExecuted() == 0 {
				t.Fatal("inline-enabled run executed nothing inline")
			}
		} else if got := rt.Locality(1).InlineExecuted(); got != 0 {
			t.Fatalf("inline-disabled run executed %d inline", got)
		}
		mu.Lock()
		defer mu.Unlock()
		out := outcome{counts: make(map[uint32]int, len(counts)), echoes: echoes}
		for k, v := range counts {
			out.counts[k] = v
		}
		return out
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inl := run(t, 0, seed)
			spawn := run(t, -1, seed)
			if inl.echoes != spawn.echoes {
				t.Fatalf("echo counts differ: inline %d, spawn %d", inl.echoes, spawn.echoes)
			}
			if len(inl.counts) != len(spawn.counts) {
				t.Fatalf("sink id sets differ: inline %d, spawn %d", len(inl.counts), len(spawn.counts))
			}
			for id, c := range inl.counts {
				if c != 1 {
					t.Fatalf("inline run: id %d executed %d times, want exactly once", id, c)
				}
				if spawn.counts[id] != 1 {
					t.Fatalf("spawn run: id %d executed %d times, want exactly once", id, spawn.counts[id])
				}
			}
		})
	}
}

// TestInlineExactlyOnceUnderChaos: the inline lane sits above the ARQ and
// dedup layers, so a lossy, duplicating, corrupting fabric must not change
// the exactly-once guarantee for inline-executed actions.
func TestInlineExactlyOnceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	rt, err := NewRuntime(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		Aggregation:        true,
		Fabric:             chaosFabric(0.02, 20260807),
		// Eight 45 B frames of the 4 B sink parcels per bundle.
		AggFlushBytes: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var mu sync.Mutex
	counts := make(map[uint32]int)
	sink := rt.MustRegisterInlineAction("inline_chaos_sink", func(loc *Locality, args [][]byte) [][]byte {
		if len(args) == 1 && len(args[0]) >= 4 {
			id := binary.LittleEndian.Uint32(args[0])
			mu.Lock()
			counts[id]++
			mu.Unlock()
		}
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	l := rt.Locality(0)
	const total = 2000
	for i := 0; i < total; i++ {
		idBuf := make([]byte, 4)
		binary.LittleEndian.PutUint32(idBuf, uint32(i))
		if err := l.ApplyID(1, sink, [][]byte{idBuf}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		if n == total || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != total {
		t.Fatalf("delivered %d of %d distinct ids under chaos", len(counts), total)
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("id %d executed %d times under chaos, want exactly once", id, c)
		}
	}
	if rt.Locality(1).InlineExecuted() == 0 {
		t.Fatal("chaos run never used the inline lane")
	}
}

// TestInlineConcurrentDeliver exercises the inline lane from several
// delivering goroutines at once (the mt-progress shape where multiple
// workers drain completions concurrently). Run under the race detector via
// `make race`.
func TestInlineConcurrentDeliver(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_conc", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const goroutines, msgs, bundle = 4, 50, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := benchBundle(bundle, 32, act)
			for i := 0; i < msgs; i++ {
				l.deliver(m)
			}
		}()
	}
	wg.Wait()
	const total = goroutines * msgs * bundle
	for ran.Load() < total {
		runtime.Gosched()
	}
	if got := l.InlineExecuted(); got == 0 || got > total {
		t.Fatalf("InlineExecuted = %d out of %d delivered", got, total)
	}
}

// TestDeliverInlineBundleZeroAllocs is the inline lane's allocation gate
// for a multi-parcel *message* (the parcel layer's own aggregation; the
// bundle shape is TestDeliverHPXBBundleZeroAllocs): delivering 32 small
// parcels, all run to completion inline, must not allocate once pools are
// warm — the lane adds budget checks and EWMA updates to the datapath, none
// of which may touch the heap.
func TestDeliverInlineBundleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race builds")
	}
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	act := rt.MustRegisterInlineAction("inline_zeroalloc", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const bundle = 32
	m := benchBundle(bundle, 64, act)
	owner := &stubOwner{}
	m.Owner = owner
	// Inline delivery is synchronous (TestInlineDeliveryRunsToCompletion)
	// except when a preempted drain trips the wall cap and the rest of that
	// one batch spills; wait that out rather than fail on it.
	deliverOnce := func() {
		want := ran.Load() + bundle
		rel := owner.releases.Load() + 1
		l.deliver(m)
		for ran.Load() < want || owner.releases.Load() < rel {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		deliverOnce()
	}
	inline0 := l.InlineExecuted()
	const runs = 50
	avg := testing.AllocsPerRun(runs, deliverOnce)
	if avg != 0 {
		t.Fatalf("inline delivery of a warm %d-parcel bundle allocates %.1f times per run, want 0", bundle, avg)
	}
	if got, all := l.InlineExecuted()-inline0, uint64((runs+1)*bundle); got < all*9/10 {
		t.Fatalf("%d of %d parcels ran inline: the gate measured the spawn path, not the inline lane", got, all)
	}
}
