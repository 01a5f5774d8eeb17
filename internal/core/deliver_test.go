package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hpxgo/internal/serialization"
)

// stubOwner is a refcount-observing serialization.RecvOwner for tests.
type stubOwner struct {
	retains  atomic.Int64
	releases atomic.Int64
}

func (o *stubOwner) Retain()  { o.retains.Add(1) }
func (o *stubOwner) Release() { o.releases.Add(1) }

// TestDeliverBundleZeroAllocs is the allocation gate of the receiver
// datapath: once pools and the runner cache are warm, delivering an
// eager-sized bundled message — decode, dispatch, spawn, execute, buffer
// release — must not allocate at all.
func TestDeliverBundleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race builds")
	}
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	noop := rt.MustRegisterAction("zeroalloc_noop", func(*Locality, [][]byte) [][]byte {
		ran.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	const bundle = 8
	m := benchBundle(bundle, 64, noop)
	owner := &stubOwner{}
	m.Owner = owner
	deliverOnce := func() {
		want := ran.Load() + bundle
		rel := owner.releases.Load() + 1
		l.deliver(m)
		for ran.Load() < want || owner.releases.Load() < rel {
			runtime.Gosched()
		}
	}
	// Warm the delivery pool, decode slabs and the runner cache.
	for i := 0; i < 8; i++ {
		deliverOnce()
	}
	// The last task's release happens just before its runner re-parks; wait
	// for the cache to refill so no measured run spawns a fresh goroutine.
	idle := l.sched.IdleRunners()
	settle := func() {
		for l.sched.IdleRunners() < idle {
			runtime.Gosched()
		}
	}
	settle()
	avg := testing.AllocsPerRun(50, func() {
		deliverOnce()
		settle()
	})
	if avg != 0 {
		t.Fatalf("deliver of a warm %d-parcel bundle allocates %.1f times per run, want 0", bundle, avg)
	}
	if owner.retains.Load() != 0 {
		t.Fatalf("unexpected owner retains: %d", owner.retains.Load())
	}
}

// TestDeliverDecodeError checks that a corrupt message is counted, reported
// and dropped with its pooled receive buffers released.
func TestDeliverDecodeError(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 1, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	owner := &stubOwner{}
	m := &serialization.Message{NonZeroCopy: []byte{1, 2, 3}, Owner: owner}
	l.deliver(m)
	if got := l.DecodeErrors(); got != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", got)
	}
	if got := owner.releases.Load(); got != 1 {
		t.Fatalf("owner releases = %d, want 1 (dropped message must release its buffers)", got)
	}
	if txt := rt.StatsText(); !strings.Contains(txt, "decode errors 1") {
		t.Fatalf("StatsText does not surface the decode-error counter:\n%s", txt)
	}
}

// TestDeliverUnknownActionReleasesOwner: parcels whose action id is
// unregistered are dropped and counted, without wedging the delivery or
// leaking the owner.
func TestDeliverUnknownActionReleasesOwner(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 1, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	m := benchBundle(4, 16, 9999) // action id never registered
	owner := &stubOwner{}
	m.Owner = owner
	l.deliver(m)
	if got := owner.releases.Load(); got != 1 {
		t.Fatalf("owner releases = %d, want 1 (no runnable parcel must still release)", got)
	}
	if got := l.UnknownActionDrops(); got != 4 {
		t.Fatalf("UnknownActionDrops = %d, want 4 (every dropped parcel is counted)", got)
	}
}
