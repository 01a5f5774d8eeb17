package core

import (
	"runtime"
	"testing"
	"time"
)

// TestCollBoxFastPathZeroAlloc: a collective round whose data arrived before
// the participant asked for it (the common case once the tree is warm) must
// complete put+wait without allocating.
func TestCollBoxFastPathZeroAlloc(t *testing.T) {
	b := &collBox{
		msgs:    make(map[uint32][][]byte),
		waiters: make(map[uint32]chan struct{}),
	}
	blobs := [][]byte{[]byte("round")}
	deadline := monoNs() + int64(time.Minute)
	// Warm the maps.
	b.put(7, blobs)
	if _, err := b.wait(7, deadline); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b.put(7, blobs)
		if _, err := b.wait(7, deadline); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("collBox put+wait fast path allocates %.1f/op, want 0", allocs)
	}
}

// TestCollBoxParkPathPooled: the park path used to allocate a fresh waiter
// channel and a fresh timer per wait; both are pooled now, so a long run of
// park/wake cycles stays (near-)allocation-free on the waiting side.
func TestCollBoxParkPathPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per channel op; malloc count is meaningless")
	}
	b := &collBox{
		msgs:    make(map[uint32][][]byte),
		waiters: make(map[uint32]chan struct{}),
	}
	blobs := [][]byte{[]byte("round")}
	deadline := monoNs() + int64(time.Minute)

	// A single long-lived waker: parks are signalled through an unbuffered
	// channel so each wait really blocks before its put arrives.
	keys := make(chan uint32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range keys {
			// Let the waiter reach the select and park.
			for {
				b.mu.Lock()
				parked := b.waiters[k] != nil
				b.mu.Unlock()
				if parked {
					break
				}
				runtime.Gosched()
			}
			b.put(k, blobs)
		}
	}()

	cycle := func(k uint32) {
		keys <- k
		if _, err := b.wait(k, deadline); err != nil {
			t.Error(err)
		}
	}
	// Warm-up: populate both pools and the maps.
	for i := 0; i < 10; i++ {
		cycle(3)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	const rounds = 400
	for i := 0; i < rounds; i++ {
		cycle(3)
	}
	runtime.ReadMemStats(&m1)
	close(keys)
	<-done

	allocs := m1.Mallocs - m0.Mallocs
	// Pre-pooling this path cost >=2 allocations per round (waiter channel +
	// timer); allow generous slack for runtime noise while still catching a
	// per-round allocation.
	if allocs > rounds/2 {
		t.Fatalf("park path allocated %d times over %d rounds; waiter/timer pooling is not effective", allocs, rounds)
	}
}
