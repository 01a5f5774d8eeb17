package amt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newStarted(t *testing.T, workers int) *Scheduler {
	t.Helper()
	s := New(Config{Workers: workers, Name: "test"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestSpawnRunsTasks(t *testing.T) {
	s := newStarted(t, 2)
	var n atomic.Int64
	const k = 100
	for i := 0; i < k; i++ {
		s.Spawn(func() { n.Add(1) })
	}
	if !s.WaitIdle(5 * time.Second) {
		t.Fatal("scheduler did not go idle")
	}
	if n.Load() != k {
		t.Fatalf("ran %d tasks, want %d", n.Load(), k)
	}
	if s.Executed() != k {
		t.Fatalf("Executed = %d, want %d", s.Executed(), k)
	}
}

func TestDoubleStartFails(t *testing.T) {
	s := newStarted(t, 1)
	if err := s.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestNestedSpawn(t *testing.T) {
	s := newStarted(t, 2)
	var n atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		n.Add(1)
		if depth > 0 {
			s.Spawn(func() { spawn(depth - 1) })
			s.Spawn(func() { spawn(depth - 1) })
		}
	}
	s.Spawn(func() { spawn(6) })
	if !s.WaitIdle(5 * time.Second) {
		t.Fatal("not idle")
	}
	if n.Load() != 127 { // 2^7 - 1 nodes of a binary spawn tree
		t.Fatalf("ran %d tasks, want 127", n.Load())
	}
}

func TestBackgroundInvokedWhenIdle(t *testing.T) {
	s := New(Config{Workers: 2})
	var calls atomic.Int64
	s.SetBackground(func(workerID int) bool {
		calls.Add(1)
		return false
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if calls.Load() < 10 {
		t.Fatalf("background called only %d times", calls.Load())
	}
}

func TestSetBackgroundNil(t *testing.T) {
	s := New(Config{Workers: 1})
	s.SetBackground(func(int) bool { return false }) // so Start launches a poll loop
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.PollLoops() != 1 {
		t.Fatalf("PollLoops = %d, want 1", s.PollLoops())
	}
	s.SetBackground(nil) // must not crash the running worker
	var n atomic.Int64
	s.Spawn(func() { n.Add(1) })
	if !s.WaitIdle(2 * time.Second) {
		t.Fatal("not idle")
	}
}

func TestFutureSetGet(t *testing.T) {
	s := newStarted(t, 1)
	f := NewFuture[int](s)
	if f.Ready() {
		t.Fatal("fresh future ready")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		f.Set(42, nil)
	}()
	v, err := f.Get()
	if v != 42 || err != nil {
		t.Fatalf("Get = (%d, %v)", v, err)
	}
	if !f.Ready() {
		t.Fatal("future should be ready")
	}
}

func TestFutureSetOnce(t *testing.T) {
	s := newStarted(t, 1)
	f := NewFuture[int](s)
	if !f.Set(1, nil) {
		t.Fatal("first Set failed")
	}
	if f.Set(2, nil) {
		t.Fatal("second Set succeeded")
	}
	v, _ := f.Get()
	if v != 1 {
		t.Fatalf("value overwritten: %d", v)
	}
}

func TestFutureError(t *testing.T) {
	s := newStarted(t, 1)
	boom := errors.New("boom")
	f := Async(s, func() (string, error) { return "", boom })
	_, err := f.Get()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestFutureThen(t *testing.T) {
	s := newStarted(t, 2)
	f := NewFuture[int](s)
	var got atomic.Int64
	f.Then(func(v int, err error) { got.Store(int64(v)) })
	f.Set(7, nil)
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 7 {
		t.Fatal("Then callback never ran")
	}
	// Then after Set also fires.
	var got2 atomic.Int64
	f.Then(func(v int, err error) { got2.Store(int64(v)) })
	for got2.Load() != 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got2.Load() != 7 {
		t.Fatal("post-set Then callback never ran")
	}
}

func TestFutureGetTimeout(t *testing.T) {
	s := newStarted(t, 1)
	f := NewFuture[int](s)
	_, err := f.GetTimeout(20 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	f.Set(3, nil)
	v, err := f.GetTimeout(time.Second)
	if v != 3 || err != nil {
		t.Fatalf("GetTimeout after set = (%d, %v)", v, err)
	}
}

func TestFutureWait(t *testing.T) {
	s := newStarted(t, 1)
	f := NewFuture[struct{}](s)
	done := make(chan struct{})
	go func() {
		f.Wait()
		close(done)
	}()
	f.Set(struct{}{}, nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestBlockedTaskDoesNotStarveOthers(t *testing.T) {
	// Many tasks blocked on futures must not prevent further tasks from
	// running: blocked tasks park (like suspended HPX threads) instead of
	// occupying workers.
	s := newStarted(t, 1)
	gate := NewFuture[struct{}](s)
	const blocked = 32
	var woken atomic.Int64
	for i := 0; i < blocked; i++ {
		s.Spawn(func() {
			gate.Get()
			woken.Add(1)
		})
	}
	// A later task must still run promptly and can release the gate.
	release := Async(s, func() (int, error) {
		gate.Set(struct{}{}, nil)
		return 1, nil
	})
	if _, err := release.GetTimeout(5 * time.Second); err != nil {
		t.Fatalf("later task starved: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for woken.Load() != blocked && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if woken.Load() != blocked {
		t.Fatalf("only %d of %d blocked tasks woke", woken.Load(), blocked)
	}
}

func TestWhenAll(t *testing.T) {
	s := newStarted(t, 2)
	fs := make([]*Future[int], 5)
	for i := range fs {
		i := i
		fs[i] = Async(s, func() (int, error) { return i * i, nil })
	}
	all := WhenAll(s, fs...)
	vals, err := all.Get()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

func TestWhenAllEmpty(t *testing.T) {
	s := newStarted(t, 1)
	vals, err := WhenAll[int](s).Get()
	if err != nil || vals != nil {
		t.Fatalf("empty WhenAll = (%v, %v)", vals, err)
	}
}

func TestWhenAllPropagatesError(t *testing.T) {
	s := newStarted(t, 2)
	boom := errors.New("boom")
	f1 := Async(s, func() (int, error) { return 1, nil })
	f2 := Async(s, func() (int, error) { return 0, boom })
	_, err := WhenAll(s, f1, f2).Get()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestDedicatedThread(t *testing.T) {
	s := newStarted(t, 1)
	var ticks atomic.Int64
	s.StartDedicated("prog", false, func() { ticks.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks.Load() < 100 {
		t.Fatalf("dedicated thread ticked %d times", ticks.Load())
	}
	s.Stop() // must join the dedicated thread without hanging
}

func TestStopIdempotent(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.Stop()
}

func TestConcurrentSpawners(t *testing.T) {
	s := newStarted(t, 4)
	var n atomic.Int64
	var wg sync.WaitGroup
	const spawners, each = 8, 200
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Spawn(func() { n.Add(1) })
			}
		}()
	}
	wg.Wait()
	if !s.WaitIdle(10 * time.Second) {
		t.Fatal("not idle")
	}
	if n.Load() != spawners*each {
		t.Fatalf("ran %d, want %d", n.Load(), spawners*each)
	}
}

func TestHelpRunsBackground(t *testing.T) {
	s := New(Config{Workers: 1}) // never started: Help drives background work
	var calls atomic.Int64
	if s.Help() {
		t.Fatal("Help with no background hook should report no work")
	}
	s.SetBackground(func(workerID int) bool {
		if workerID != -1 {
			t.Errorf("Help should pass workerID -1, got %d", workerID)
		}
		calls.Add(1)
		return true
	})
	if !s.Help() {
		t.Fatal("Help should report background progress")
	}
	if calls.Load() != 1 {
		t.Fatalf("background called %d times", calls.Load())
	}
}
