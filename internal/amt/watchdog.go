package amt

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// watchdogTick is how often the watchdog samples the dedicated threads: a
// pass seen at two consecutive ticks has run for at least this long.
const watchdogTick = time.Millisecond

// Watchdog keeps a stuck pass from stalling a dedicated thread's work. It is
// the Go runtime's sysmon retake rule applied to dedicated threads: every
// tick it checks each watched thread, and one found inside the same pass as
// at the previous tick is taken over — a helper goroutine runs the thread's
// pass until the thread leaves the stuck one. A pass that blocks (an
// inline-hinted action that waits) therefore costs one goroutine, not the
// progress the thread owes its scheduler.
//
// Helpers are watched like dedicated threads, so a helper that blocks in turn
// is taken over too, and the tick keeps watching every other thread while
// takeovers run. One Watchdog serves any number of schedulers (a runtime
// shares one across its localities); a scheduler uses it when its Config
// names it. Start and Stop bound the watchdog goroutine itself; each
// dedicated thread's stopper joins the helpers that stand in for it.
type Watchdog struct {
	mu      sync.Mutex
	threads []*dedicated
	stop    chan struct{}
	done    chan struct{}
}

// NewWatchdog returns a watchdog that watches nothing until Start.
func NewWatchdog() *Watchdog { return &Watchdog{} }

// Start launches the watchdog goroutine. It is a no-op if already started.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop != nil {
		return
	}
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go w.run(w.stop, w.done)
}

// Stop stops and joins the watchdog goroutine; takeovers already running
// continue until their dedicated threads stop. Idempotent; a no-op if never
// started.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	stop, done := w.stop, w.done
	if stop != nil {
		select {
		case <-stop:
		default:
			close(stop)
		}
	}
	w.mu.Unlock()
	if done != nil {
		<-done
	}
}

func (w *Watchdog) run(stop, done chan struct{}) {
	defer close(done)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("lane", "watchdog")))
	tick := time.NewTicker(watchdogTick)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.check()
		}
	}
}

// watch adds a dedicated thread (or a helper) to the watched set.
func (w *Watchdog) watch(d *dedicated) {
	w.mu.Lock()
	w.threads = append(w.threads, d)
	w.mu.Unlock()
}

// forget drops a root dedicated thread from the watched set and stops new
// takeovers for it; afterwards root.helpers may be waited on. Idempotent.
func (w *Watchdog) forget(root *dedicated) {
	w.mu.Lock()
	root.forgotten = true
	w.removeLocked(root)
	w.mu.Unlock()
}

func (w *Watchdog) removeLocked(d *dedicated) {
	for i, e := range w.threads {
		if e == d {
			w.threads = append(w.threads[:i], w.threads[i+1:]...)
			return
		}
	}
}

// check is one tick: take over every thread stuck in one pass since the
// previous tick that has no helper yet.
func (w *Watchdog) check() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, d := range w.threads {
		seq := d.pass.Load()
		stuck := seq&1 == 1 && seq == d.seen
		d.seen = seq
		if stuck && !d.helped && !d.root.forgotten && !d.root.halted() {
			w.takeOverLocked(d, seq)
		}
	}
}

// takeOverLocked starts a helper that runs d's pass until d leaves pass seq
// or d's root thread stops. The helper is itself watched.
func (w *Watchdog) takeOverLocked(d *dedicated, seq uint64) {
	d.helped = true
	d.takeovers.Add(1)
	h := &dedicated{name: d.name, loop: d.loop, takeovers: d.takeovers, root: d.root}
	w.threads = append(w.threads, h)
	d.root.helpers.Add(1)
	go func() {
		defer d.root.helpers.Done()
		labels := roleLabels("takeover", "thread", d.name)
		pprof.SetGoroutineLabels(labels)
		for d.pass.Load() == seq && !d.root.halted() {
			h.pass.Add(1)
			h.loop()
			h.pass.Add(1)
			if profilingLabels.Load() {
				pprof.SetGoroutineLabels(labels)
			}
			runtime.Gosched()
		}
		w.mu.Lock()
		w.removeLocked(h)
		d.helped = false
		w.mu.Unlock()
	}()
}
