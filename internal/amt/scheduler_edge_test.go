package amt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpawnRacingStop hammers Spawn from several goroutines while Stop runs
// concurrently. Every task spawned must eventually run exactly once (Spawn
// never drops work, even mid-shutdown), and nothing may panic or deadlock —
// the dangerous window is a spawner popping a parked runner that Stop is
// about to drain and close.
func TestSpawnRacingStop(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(Config{Workers: 2, MaxIdleRunners: 8})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var ran, spawned atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					spawned.Add(1)
					s.Spawn(func() { ran.Add(1) })
				}
			}()
		}
		close(start)
		s.Stop() // race with the spawners
		wg.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for ran.Load() != spawned.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d tasks ran after Stop race", round, ran.Load(), spawned.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestIdleRunnerCacheOverflow drives a task burst far past a deliberately
// tiny MaxIdleRunners and checks the parked population respects the cap:
// runners beyond shard + overflow capacity must exit, not accumulate.
func TestIdleRunnerCacheOverflow(t *testing.T) {
	const cap = 4
	s := New(Config{Workers: 2, MaxIdleRunners: cap})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// Hold all tasks at a gate so the burst cannot reuse runners, forcing 64
	// concurrent goroutines; on release they all try to park at once.
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		s.Spawn(func() {
			defer wg.Done()
			<-gate
		})
	}
	close(gate)
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := s.IdleRunners()
		if n <= cap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("IdleRunners = %d, want <= %d", n, cap)
		}
		time.Sleep(time.Millisecond)
	}
	// The cache must still hand out what it kept.
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		s.Spawn(func() { ran.Add(1) })
	}
	for ran.Load() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 post-burst tasks ran", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpawnBatchSmall covers the degenerate batch sizes: nil and empty are
// no-ops, a 1-element batch runs its task, and the batch slice may be reused
// by the caller immediately after SpawnBatch returns.
func TestSpawnBatchSmall(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.SpawnBatch(nil)
	s.SpawnBatch([]func(){})
	if got := s.Executed(); got != 0 {
		t.Fatalf("empty batches executed %d tasks", got)
	}
	var ran atomic.Int64
	batch := []func(){func() { ran.Add(1) }}
	s.SpawnBatch(batch)
	batch[0] = nil // caller may clobber the slice right away
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("1-element batch task never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpawnBatchPastRunnerSupply spawns a batch much larger than the parked
// runner population: the excess must run on fresh goroutines and every task
// must execute exactly once.
func TestSpawnBatchPastRunnerSupply(t *testing.T) {
	s := New(Config{Workers: 2, MaxIdleRunners: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	const n = 100
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	batch := make([]func(), n)
	for i := range batch {
		batch[i] = func() { ran.Add(1); wg.Done() }
	}
	s.SpawnBatch(batch)
	wg.Wait()
	if ran.Load() != n {
		t.Fatalf("ran %d of %d batch tasks", ran.Load(), n)
	}
}

// BenchmarkSpawnBatch compares batched spawning of a bundle-sized task burst
// against the per-task Spawn loop it replaced on the receiver datapath.
func BenchmarkSpawnBatch(b *testing.B) {
	for _, size := range []int{8, 32} {
		name := "batch=8"
		if size == 32 {
			name = "batch=32"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Config{Workers: 2})
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			var done atomic.Int64
			batch := make([]func(), size)
			for i := range batch {
				batch[i] = func() { done.Add(1) }
			}
			// Warm the runner cache.
			s.SpawnBatch(batch)
			for done.Load() != int64(size) {
				runtime.Gosched()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done.Store(0)
				s.SpawnBatch(batch)
				for done.Load() != int64(size) {
					runtime.Gosched()
				}
			}
		})
	}
}

// TestInlineAccountingConserves: tasks run on the inline lane count as
// pending while they run and as executed afterwards, whether accounted one
// at a time (RunInline) or as a batch begun in steps and ended once — so
// Pending-based quiescence detection is oblivious to the lane.
func TestInlineAccountingConserves(t *testing.T) {
	s := New(Config{Workers: 1})
	s.RunInline(func() {
		if got := s.Pending(); got != 1 {
			t.Errorf("Pending inside RunInline = %d, want 1", got)
		}
	})
	s.BeginInline(8)
	s.BeginInline(3)
	if got := s.Pending(); got != 11 {
		t.Fatalf("Pending inside an inline batch = %d, want 11", got)
	}
	s.EndInline(11)
	if p, e, in := s.Pending(), s.Executed(), s.InlineExecuted(); p != 0 || e != 12 || in != 12 {
		t.Fatalf("Pending %d, Executed %d, InlineExecuted %d; want 0, 12, 12", p, e, in)
	}
}
