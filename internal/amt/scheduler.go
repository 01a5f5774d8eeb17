// Package amt implements the asynchronous many-task execution layer that
// stands in for the HPX thread-scheduling system. Each locality owns one
// Scheduler.
//
// Tasks are goroutines: like HPX's suspendable user-level threads, a task
// that blocks on a future parks and costs nothing until its value arrives
// (the Go scheduler plays the role of HPX's thread scheduler). The
// Scheduler's "workers" are the HPX worker threads in their *idle* role: W
// poller goroutines that continuously invoke the installed background pass —
// which is how the MPI parcelport polls its pending connections and how the
// LCI parcelport in worker-progress (mt) mode drives progress and drains
// completion queues. Start launches them only when a background pass is
// installed: in LCI pin mode the dedicated progress thread runs the whole
// pass and the locality has no worker pollers. Compute code that wants W-way
// chunking queries Workers(), as the Octo-Tiger proxy does.
//
// The scheduler also provides "dedicated threads" outside the worker pool,
// the analogue of reserving a core through the HPX resource partitioner: the
// LCI parcelport's pinned progress thread runs there. A Watchdog checks them
// every millisecond and has a helper run the pass of one stuck in a single
// pass until it returns (see StartDedicated and Watchdog).
package amt

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// BackgroundFunc is one background pass, called by idle workers. It returns
// true if it performed any work (so the worker polls hot) and false otherwise
// (so the worker may back off).
type BackgroundFunc func(workerID int) bool

// Config tunes a Scheduler.
type Config struct {
	// Workers is the number of background-poller goroutines (the idle role
	// of HPX worker threads), and the width Workers reports. Default 2.
	Workers int
	// IdleSleep is how long a worker poll loop naps after a stretch of
	// fruitless polling, bounding busy-wait burn on oversubscribed hosts.
	// Only worker poll loops nap (LCI mt mode, MPI); a dedicated thread
	// never does. Default 20µs.
	IdleSleep time.Duration
	// MaxIdleRunners bounds the parked task-runner cache across all shards
	// plus the overflow. Default DefaultMaxIdleRunners.
	MaxIdleRunners int
	// Watchdog, if set, watches this scheduler's dedicated threads and takes
	// over a pass stuck for a tick. Nil: nothing watches them.
	Watchdog *Watchdog
	// Name labels the scheduler in errors (typically "locality-N").
	Name string
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.IdleSleep <= 0 {
		c.IdleSleep = 20 * time.Microsecond
	}
	if c.MaxIdleRunners <= 0 {
		c.MaxIdleRunners = DefaultMaxIdleRunners
	}
}

// Scheduler runs tasks and drives parcelport background work.
type Scheduler struct {
	cfg Config

	background atomic.Pointer[BackgroundFunc]

	spawned   atomic.Int64
	completed atomic.Int64
	inline    atomic.Int64

	// Parked task-runner goroutines, recycled between tasks (LIFO so the
	// hottest stack is reused first), sharded per worker so concurrent
	// spawners and parkers do not serialize on one lock. The last shard is
	// the overflow: runners that find their home shard full spill into it,
	// and spawners scan it after the home shards. See Spawn.
	shards    []runnerShard
	idleCount atomic.Int64 // parked runners across all shards (approximate)
	spawnCur  atomic.Uint32
	parkCur   atomic.Uint32

	stopFlag  atomic.Bool
	wg        sync.WaitGroup
	dedicated []*dedicated
	dedMu     sync.Mutex
	started   atomic.Bool
	pollLoops int // worker poll loops Start launched (0 or Workers)
	takeovers atomic.Int64

	taskLabels context.Context // pprof labels of task runners (lane=task)
}

// profilingLabels turns on pprof label upkeep; see EnableProfilingLabels.
var profilingLabels atomic.Bool

// EnableProfilingLabels turns on the pprof label upkeep that lets
// `go tool pprof -tags` split a CPU profile by goroutine role: a task runner
// labels itself lane=task instead of inheriting its spawner's labels, and the
// worker poll loops, dedicated threads and watchdog helpers put their own
// labels back after every pass, since a pass may relabel its goroutine (core's
// inline lane does). Off by default, and while off none of it runs.
func EnableProfilingLabels(on bool) { profilingLabels.Store(on) }

// ProfilingLabels reports whether EnableProfilingLabels is on.
func ProfilingLabels() bool { return profilingLabels.Load() }

// roleLabels is the label set a role goroutine carries: lane plus one more
// key naming the scheduler or thread.
func roleLabels(lane, key, name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("lane", lane, key, name))
}

// runnerShard is one stack of parked task runners, holding at most limit.
// Padded so shards sit on separate cache lines.
type runnerShard struct {
	mu    sync.Mutex
	idle  []chan func()
	limit int
	_     [64]byte
}

// pop removes the most recently parked runner; the caller holds mu and has
// checked that one is parked.
func (sh *runnerShard) pop() chan func() {
	k := len(sh.idle) - 1
	rc := sh.idle[k]
	sh.idle[k] = nil
	sh.idle = sh.idle[:k]
	return rc
}

// DefaultMaxIdleRunners bounds the parked task-runner cache. Beyond this,
// finished runners simply exit; a burst larger than the cache still runs
// every task on its own (freshly spawned) goroutine. Sized to absorb a
// benchmark-scale injection burst: the steady-state population tracks the
// largest task burst seen, and a parked runner costs one small stack, so the
// worst case is a few MB per locality. Too small a cache churns goroutines —
// every burst beyond it pays a stack allocation per task again.
const DefaultMaxIdleRunners = 4096

// idleSpins is the number of fruitless polling iterations before a worker
// naps for IdleSleep.
const idleSpins = 64

// dedicated is one dedicated thread, or one watchdog helper standing in for
// a stuck one.
type dedicated struct {
	name string
	loop func()
	// pass is bumped on entering and on leaving each pass: odd while the
	// thread is inside one.
	pass atomic.Uint64
	// takeovers is the owning scheduler's takeover counter.
	takeovers *atomic.Int64
	// root is the dedicated thread this one is, or ultimately stands in
	// for; helpers stop with it.
	root *dedicated

	// Under the watchdog's mu: seen is pass at the previous tick, helped
	// that a helper runs for this thread, forgotten (root only) that the
	// thread stopped and gets no new helpers.
	seen      uint64
	helped    bool
	forgotten bool

	// Root only.
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	helpers  sync.WaitGroup // running helpers of this thread and its helpers
}

// halt signals the dedicated loop to exit (idempotent).
func (d *dedicated) halt() { d.stopOnce.Do(func() { close(d.stop) }) }

// halted reports whether halt was called.
func (d *dedicated) halted() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// join waits for a halted dedicated thread and every helper standing in for
// it.
func (d *dedicated) join(w *Watchdog) {
	<-d.done
	if w != nil {
		w.forget(d)
	}
	d.helpers.Wait()
}

// New creates a scheduler. Call Start to launch the workers.
func New(cfg Config) *Scheduler {
	cfg.fillDefaults()
	s := &Scheduler{cfg: cfg, taskLabels: roleLabels("task", "sched", cfg.Name)}
	// One runner shard per worker plus the overflow; half the cache lives
	// in the home shards, the other half in the overflow, summing to
	// cfg.MaxIdleRunners.
	n := cfg.Workers
	s.shards = make([]runnerShard, n+1)
	shardCap := max(1, cfg.MaxIdleRunners/(2*n))
	for i := range s.shards[:n] {
		s.shards[i].limit = shardCap
	}
	s.shards[n].limit = max(0, cfg.MaxIdleRunners-shardCap*n)
	return s
}

// Name returns the configured scheduler name.
func (s *Scheduler) Name() string { return s.cfg.Name }

// Workers returns the configured worker count (used by applications to
// chunk compute work).
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// SetBackground installs the idle background-work hook (the parcelport's
// background function). Start launches the worker poll loops only if one is
// installed by then; afterwards it may be replaced or cleared, but a
// scheduler started without one never polls from its workers.
func (s *Scheduler) SetBackground(f BackgroundFunc) {
	if f == nil {
		s.background.Store(nil)
		return
	}
	s.background.Store(&f)
}

// Start launches the worker (background-poller) goroutines, if a background
// pass is installed. It is an error to start twice.
func (s *Scheduler) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("amt: scheduler %q already started", s.cfg.Name)
	}
	if s.background.Load() == nil {
		return nil
	}
	s.pollLoops = s.cfg.Workers
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.workerLoop(w)
	}
	return nil
}

// Spawn schedules a task. The task owns a goroutine for its entire life and
// may block on futures freely (it parks rather than occupying a worker,
// matching HPX's suspendable threads). Goroutines are recycled through an
// idle-runner cache between tasks, so a flood of small tasks — a bundle of
// small parcels arriving at once — does not pay a fresh stack allocation per
// task, mirroring HPX's thread-object reuse.
func (s *Scheduler) Spawn(task func()) {
	s.spawned.Add(1)
	if rc := s.popRunner(); rc != nil {
		rc <- task
		return
	}
	go s.runTasks(task, s.nextHome())
}

// SpawnBatch schedules every task of a batch, visiting each runner-shard
// lock at most once: a decoded bundle of N parcels pays O(shards) lock
// acquisitions instead of N. Tasks beyond the parked-runner supply run on
// fresh goroutines. The batch slice itself is not retained — the caller may
// reuse it immediately.
func (s *Scheduler) SpawnBatch(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	s.spawned.Add(int64(len(tasks)))
	i := 0
	if s.idleCount.Load() > 0 {
		start := int(s.spawnCur.Add(1))
		for si := 0; si < len(s.shards) && i < len(tasks); si++ {
			sh := s.scan(start, si)
			sh.mu.Lock()
			for ; len(sh.idle) > 0 && i < len(tasks); i++ {
				s.idleCount.Add(-1)
				// The buffered handoff of a parked runner is empty, so this
				// send never blocks under the shard lock.
				sh.pop() <- tasks[i]
			}
			sh.mu.Unlock()
		}
	}
	for ; i < len(tasks); i++ {
		go s.runTasks(tasks[i], s.nextHome())
	}
}

// popRunner takes a parked runner, scanning the shards from a rotating
// cursor and then the overflow. Returns nil when none is parked. The
// idleCount probe keeps a spawn during a task backlog — when the cache is
// empty because runners never get to park — at one atomic load instead of a
// lock acquisition per shard.
func (s *Scheduler) popRunner() chan func() {
	if s.idleCount.Load() <= 0 {
		return nil
	}
	start := int(s.spawnCur.Add(1))
	for i := range s.shards {
		sh := s.scan(start, i)
		sh.mu.Lock()
		if len(sh.idle) > 0 {
			rc := sh.pop()
			s.idleCount.Add(-1)
			sh.mu.Unlock()
			return rc
		}
		sh.mu.Unlock()
	}
	return nil
}

// scan returns the i-th shard a spawner visits: the home shards in turn from
// the rotating cursor start, then the overflow.
func (s *Scheduler) scan(start, i int) *runnerShard {
	homes := len(s.shards) - 1
	if i < homes {
		return &s.shards[(start+i)%homes]
	}
	return &s.shards[homes]
}

// nextHome assigns a home shard to a fresh runner round-robin.
func (s *Scheduler) nextHome() int {
	return int(s.parkCur.Add(1)) % (len(s.shards) - 1)
}

// runTasks executes task, then parks in the idle-runner cache waiting for
// the next one, until the cache is full or the scheduler stops. The handoff
// channel is buffered so a spawner that pops this runner never blocks even
// if the runner has not reached its receive yet.
func (s *Scheduler) runTasks(task func(), home int) {
	if profilingLabels.Load() {
		pprof.SetGoroutineLabels(s.taskLabels)
	}
	rc := make(chan func(), 1)
	for {
		task()
		s.completed.Add(1)
		if !s.parkRunner(rc, home) {
			return
		}
		var ok bool
		if task, ok = <-rc; !ok {
			return
		}
	}
}

// parkRunner parks rc on its home shard, spilling to the overflow when the
// shard is full. Returns false (runner must exit) when both are full or the
// scheduler is stopping. The stop flag is checked under each lock so a
// runner can never park after Stop's drain passed its shard (see Stop).
func (s *Scheduler) parkRunner(rc chan func(), home int) bool {
	for _, i := range [2]int{home, len(s.shards) - 1} {
		sh := &s.shards[i]
		sh.mu.Lock()
		if s.stopFlag.Load() {
			sh.mu.Unlock()
			return false
		}
		if len(sh.idle) < sh.limit {
			sh.idle = append(sh.idle, rc)
			s.idleCount.Add(1)
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock()
	}
	return false
}

// IdleRunners returns the number of parked task runners across all shards
// and the overflow (diagnostics and tests).
func (s *Scheduler) IdleRunners() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.idle)
		sh.mu.Unlock()
	}
	return n
}

// RunInline executes task synchronously on the calling goroutine, with the
// same accounting as a spawned task (it shows up in Executed, and in Pending
// for its duration). This is the run-to-completion lane: the caller — a
// completion-drain pass — trades a goroutine handoff for running the task
// itself, so it must only pass tasks it knows will not block.
func (s *Scheduler) RunInline(task func()) {
	s.BeginInline(1)
	task()
	s.EndInline(1)
}

// BeginInline and EndInline are RunInline's accounting for callers that run
// a batch of inline tasks themselves and want the shared counters touched
// once per batch instead of three times per task: BeginInline(n) before
// running n tasks (they count as pending from here), EndInline(n) after n
// have finished. A caller may Begin in several steps and End once.
func (s *Scheduler) BeginInline(n int) { s.spawned.Add(int64(n)) }

// EndInline completes n tasks admitted by BeginInline.
func (s *Scheduler) EndInline(n int) {
	s.completed.Add(int64(n))
	s.inline.Add(int64(n))
}

// Pending returns the number of spawned-but-unfinished tasks.
func (s *Scheduler) Pending() int64 { return s.spawned.Load() - s.completed.Load() }

// Executed returns the number of completed tasks.
func (s *Scheduler) Executed() int64 { return s.completed.Load() }

// InlineExecuted returns the number of tasks run via RunInline.
func (s *Scheduler) InlineExecuted() int64 { return s.inline.Load() }

// workerLoop is the idle role of one worker thread: poll background work
// with a spin-then-nap backoff.
func (s *Scheduler) workerLoop(id int) {
	defer s.wg.Done()
	// Label the goroutine so CPU profiles split worker-poll time from task
	// runners, inline parcel execution and progress threads:
	// `go tool pprof -tagfocus=lane=amt-worker`.
	labels := roleLabels("amt-worker", "sched", s.cfg.Name)
	pprof.SetGoroutineLabels(labels)
	rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))
	idle := 0
	for !s.stopFlag.Load() {
		did := false
		if bg := s.background.Load(); bg != nil {
			did = (*bg)(id)
		}
		if did {
			if profilingLabels.Load() {
				pprof.SetGoroutineLabels(labels)
			}
			idle = 0
			continue
		}
		idle++
		if idle >= idleSpins {
			idle = 0
			// Nap with a little jitter so workers don't thunder in lockstep.
			time.Sleep(s.cfg.IdleSleep + time.Duration(rng.Intn(1+int(s.cfg.IdleSleep/4))))
		} else {
			runtime.Gosched()
		}
	}
}

// Help performs one background-work pass on the calling goroutine. External
// drivers may use it to push communication along while waiting.
func (s *Scheduler) Help() bool {
	if bg := s.background.Load(); bg != nil {
		return (*bg)(-1)
	}
	return false
}

// PollLoops returns the number of worker poll loops Start launched: Workers
// if a background pass was installed by then, else 0.
func (s *Scheduler) PollLoops() int { return s.pollLoops }

// Takeovers returns how many times the watchdog found one of this
// scheduler's dedicated threads (or a helper of one) stuck in a pass and had
// a helper run passes in its place.
func (s *Scheduler) Takeovers() int64 { return s.takeovers.Load() }

// StartDedicated launches a goroutine outside the worker pool, the analogue
// of reserving a core via the HPX resource partitioner. loop is called
// repeatedly, with a yield after every call, until the scheduler (or the
// returned stopper) stops it; it should perform one bounded pass of work
// (e.g. one LCI progress pass). With a Watchdog configured, loop must be safe
// to run concurrently with itself: while the thread is stuck inside one pass
// for a tick, a watchdog helper runs further passes until that one returns.
// lockThread pins the goroutine to an OS thread. The returned function stops
// and joins this thread and its helpers; it is safe to call multiple times
// and concurrently with Stop.
func (s *Scheduler) StartDedicated(name string, lockThread bool, loop func()) (stop func()) {
	d := &dedicated{name: name, loop: loop, takeovers: &s.takeovers,
		stop: make(chan struct{}), done: make(chan struct{})}
	d.root = d
	s.dedMu.Lock()
	s.dedicated = append(s.dedicated, d)
	s.dedMu.Unlock()
	if w := s.cfg.Watchdog; w != nil {
		w.watch(d)
	}
	go func() {
		defer close(d.done)
		labels := roleLabels("progress", "thread", name)
		pprof.SetGoroutineLabels(labels)
		if lockThread {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		// A dedicated thread owns its core in the real system, so it polls
		// hot and never naps; the yield keeps co-scheduled goroutines of an
		// oversubscribed host from starving.
		for !d.halted() {
			d.pass.Add(1)
			loop()
			d.pass.Add(1)
			if profilingLabels.Load() {
				pprof.SetGoroutineLabels(labels)
			}
			runtime.Gosched()
		}
	}()
	return func() {
		d.halt()
		d.join(s.cfg.Watchdog)
	}
}

// WaitIdle blocks until no tasks are pending or the timeout elapses,
// helping with background work meanwhile. Returns true if idle was reached.
func (s *Scheduler) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.Pending() == 0 {
			return true
		}
		if !s.Help() {
			runtime.Gosched()
		}
	}
	return s.Pending() == 0
}

// Stop shuts down workers and dedicated threads. Already-running task
// goroutines continue to completion on their own; tasks parked on futures
// that will never be set are abandoned.
func (s *Scheduler) Stop() {
	if !s.stopFlag.CompareAndSwap(false, true) {
		return
	}
	s.dedMu.Lock()
	ded := append([]*dedicated(nil), s.dedicated...)
	s.dedMu.Unlock()
	for _, d := range ded {
		d.halt()
	}
	for _, d := range ded {
		d.join(s.cfg.Watchdog)
	}
	if s.started.Load() {
		s.wg.Wait()
	}
	// Release parked task runners. stopFlag is already set, so any runner
	// finishing a task after this drain sees it (under its shard lock) and
	// exits instead of re-parking: no goroutine is left blocked forever.
	var idle []chan func()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		idle = append(idle, sh.idle...)
		s.idleCount.Add(-int64(len(sh.idle)))
		sh.idle = nil
		sh.mu.Unlock()
	}
	for _, rc := range idle {
		close(rc)
	}
}
