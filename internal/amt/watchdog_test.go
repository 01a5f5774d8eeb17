package amt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStartWithoutBackgroundRunsNoPollers: Start launches worker poll loops
// only when a background pass is installed; Workers still reports the width.
func TestStartWithoutBackgroundRunsNoPollers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newStarted(t, 4)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines after Start without a background pass = %d, want %d", got, before)
	}
	if s.Workers() != 4 || s.PollLoops() != 0 {
		t.Fatalf("Workers = %d, PollLoops = %d; want 4, 0", s.Workers(), s.PollLoops())
	}

	p := New(Config{Workers: 2})
	var passes atomic.Int64
	p.SetBackground(func(int) bool { passes.Add(1); return false })
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if p.PollLoops() != 2 {
		t.Fatalf("PollLoops = %d with a background pass installed, want 2", p.PollLoops())
	}
	for deadline := time.Now().Add(2 * time.Second); passes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no poll pass with a background pass installed")
		}
	}
}

// newWatched returns a scheduler whose dedicated threads a fresh, started
// watchdog watches; both stop at test cleanup.
func newWatched(t *testing.T) (*Scheduler, *Watchdog) {
	t.Helper()
	w := NewWatchdog()
	w.Start()
	s := New(Config{Workers: 1, Watchdog: w})
	t.Cleanup(func() {
		s.Stop()
		w.Stop()
	})
	return s, w
}

// blockFirst returns a pass that blocks its first k runs, on whichever
// goroutine they happen, until release is closed, and counts the others.
func blockFirst(k int64, release chan struct{}) (loop func(), blocked, passes *atomic.Int64) {
	blocked, passes = new(atomic.Int64), new(atomic.Int64)
	return func() {
		if blocked.Add(1) <= k {
			<-release
			return
		}
		passes.Add(1)
	}, blocked, passes
}

func awaitPasses(t *testing.T, passes *atomic.Int64, n int64, what string) {
	t.Helper()
	base := passes.Load()
	for deadline := time.Now().Add(5 * time.Second); passes.Load() < base+n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d passes %s", passes.Load()-base, what)
		}
	}
}

// helpers returns how many helpers the watchdog watches.
func (w *Watchdog) helpers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, d := range w.threads {
		if d.root != d {
			n++
		}
	}
	return n
}

// Takeover counts below are lower bounds: a thread descheduled mid-pass for
// a tick on a busy host is taken over too, harmlessly, since its helper
// quits as soon as the thread runs again.

// TestWatchdogTakesOverStuckDedicated: a dedicated thread stuck inside one
// pass has its pass run by a helper until it returns, and the helper quits
// once it has.
func TestWatchdogTakesOverStuckDedicated(t *testing.T) {
	s, w := newWatched(t)
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	loop, _, passes := blockFirst(1, release)
	defer s.StartDedicated("prog", false, loop)()
	defer free() // before the stopper, which waits for the stuck pass
	awaitPasses(t, passes, 100, "while the dedicated thread was stuck")
	if s.Takeovers() < 1 {
		t.Fatalf("Takeovers = %d, want >= 1", s.Takeovers())
	}
	free()
	awaitPasses(t, passes, 100, "after the stuck pass returned")
	for deadline := time.Now().Add(5 * time.Second); w.helpers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still running after the stuck pass returned", w.helpers())
		}
	}
}

// TestWatchdogNestedTakeovers: the thread's pass blocks, then the helper's
// pass blocks too. The helper is watched like the thread, so a second helper
// takes over and the passes keep running.
func TestWatchdogNestedTakeovers(t *testing.T) {
	s, _ := newWatched(t)
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	loop, blocked, passes := blockFirst(2, release)
	defer s.StartDedicated("prog", false, loop)()
	defer free()
	awaitPasses(t, passes, 100, "with the thread and its first helper both stuck")
	if b := blocked.Load(); b < 2 || s.Takeovers() < 2 {
		t.Fatalf("blocked runs %d, Takeovers = %d; want >= 2, >= 2", b, s.Takeovers())
	}
	free()
	awaitPasses(t, passes, 100, "after both stuck passes returned")
}

// TestWatchdogWatchesOthersDuringTakeover: a takeover in progress does not
// occupy the watchdog. With one thread's pass blocked and taken over, a
// second thread — of another scheduler sharing the watchdog — that blocks
// later is taken over too.
func TestWatchdogWatchesOthersDuringTakeover(t *testing.T) {
	a, w := newWatched(t)
	b := New(Config{Workers: 1, Watchdog: w})
	defer b.Stop()
	release := make(chan struct{})
	loopA, _, passesA := blockFirst(1, release)
	defer a.StartDedicated("a", false, loopA)()
	awaitPasses(t, passesA, 100, "of a while it was stuck")

	armB := make(chan struct{})
	var blockedB atomic.Bool
	var passesB atomic.Int64
	defer b.StartDedicated("b", false, func() {
		select {
		case <-armB:
			if blockedB.CompareAndSwap(false, true) {
				<-release
				return
			}
		default:
		}
		passesB.Add(1)
	})()
	defer close(release)
	close(armB)
	awaitPasses(t, &passesB, 100, "of b after its pass blocked, with a's takeover running")
	if !blockedB.Load() || a.Takeovers() < 1 || b.Takeovers() < 1 {
		t.Fatalf("b blocked %v, takeovers a=%d b=%d; want true, >= 1, >= 1", blockedB.Load(), a.Takeovers(), b.Takeovers())
	}
}

// TestDedicatedStopJoinsHelpers: stopping a thread that is stuck, and whose
// helper is stuck too, returns once both stuck passes do, with every helper
// joined: the goroutine count returns to its baseline.
func TestDedicatedStopJoinsHelpers(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWatchdog()
	w.Start()
	s := New(Config{Workers: 1, Watchdog: w})
	release := make(chan struct{})
	loop, _, passes := blockFirst(2, release)
	stop := s.StartDedicated("prog", false, loop)
	awaitPasses(t, passes, 10, "with the thread and its first helper both stuck")
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while passes were still stuck")
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	<-stopped
	s.Stop()
	w.Stop()
	for try := 0; runtime.NumGoroutine() > before; try++ {
		if try == 1000 {
			t.Fatalf("goroutines after stopping = %d, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
