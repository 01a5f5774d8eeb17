// Package core is the public facade of the runtime: the analogue of the HPX
// programming model the paper's benchmarks are written against. It assembles
// the whole stack — simulated fabric, communication library (MPI-like or
// LCI-like), parcelport, parcel layer and per-locality task schedulers — and
// exposes localities, registered actions, fire-and-forget Apply and
// future-returning Call.
//
// All localities of the simulated cluster live in one process; each has its
// own scheduler (worker pool), parcelport instance and parcel layer,
// communicating exclusively through the fabric.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcel"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/parcelport/lcipp"
	"hpxgo/internal/parcelport/mpipp"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// continuationAction is the reserved action id that completes Call futures.
const continuationAction = 0

// ErrPeerUnreachable is wrapped into the errors of Call futures and Apply
// when the fabric declared the destination HealthDown, or a Call exceeded
// Config.DeliveryTimeout. Test with errors.Is.
var ErrPeerUnreachable = errors.New("core: peer unreachable")

// ActionFunc is a registered remote action: it runs as a task on the target
// locality and returns result blobs (nil for void actions). args point into
// pooled receive buffers and are valid until the action returns, whatever
// their size; an action that keeps one, or passes it on to Apply/Call, copies
// it first. Returning them is fine (DESIGN.md §9).
type ActionFunc func(loc *Locality, args [][]byte) [][]byte

// Config assembles a runtime.
type Config struct {
	// Localities is the number of simulated compute nodes. Default 2.
	Localities int
	// WorkersPerLocality is the worker-thread count per locality. Default 2.
	WorkersPerLocality int
	// Parcelport is the Table 1 configuration name (e.g. "mpi_i",
	// "lci_psr_cq_pin_i"). Default "lci" (the baseline).
	Parcelport string
	// Aggregation enables the sender-side parcel aggregation layer: small
	// same-destination messages coalesce into one fabric transfer, flushed
	// on size, age or backpressure.
	Aggregation bool
	// AggFlushBytes is the aggregation flush size threshold (default 4096).
	AggFlushBytes int
	// AggFlushDelay is the upper bound on a buffered message's age (default
	// 50µs); a bundle normally leaves as soon as its producer goes quiet.
	AggFlushDelay time.Duration
	// InlineBudget caps how many small parcels of one delivered message or
	// bundle may run to completion directly on the draining goroutine (the
	// inline lane) before the remainder spills to spawned tasks. Only
	// actions registered with an inline hint (RegisterInlineAction/
	// MarkActionInline) are eligible. Zero selects the default, resolved from
	// the aggregation flush size so that one full bundle fits (see
	// defaultInlineBudget: 114 at the default 4096 B); negative disables
	// inline execution entirely (every parcel spawns).
	InlineBudget int
	// Fabric configures the simulated interconnect (Nodes is overwritten
	// with Localities). Zero value selects fabric.DefaultConfig.
	Fabric fabric.Config
	// LCIDevices replicates the LCI device (and its fabric context) per
	// locality — the §7.2 future-work configuration. Default 1.
	LCIDevices int
	// IdleSleep tunes the nap of worker poll loops (lci mt mode and MPI);
	// see amt.Config. In lci pin mode nothing naps.
	IdleSleep time.Duration
	// DeliveryTimeout bounds how long a Call future may wait for its remote
	// result before failing with ErrPeerUnreachable. Zero disables the
	// deadline; continuations to peers the fabric declares HealthDown are
	// reaped regardless whenever the fabric's reliability layer is active.
	DeliveryTimeout time.Duration
}

// validate rejects negative knobs instead of silently replacing them: zero
// selects the documented default, and InlineBudget is the one knob whose
// negative means something (lane off).
func (c *Config) validate() error {
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"Localities", int64(c.Localities)},
		{"WorkersPerLocality", int64(c.WorkersPerLocality)},
		{"AggFlushBytes", int64(c.AggFlushBytes)},
		{"AggFlushDelay", int64(c.AggFlushDelay)},
		{"LCIDevices", int64(c.LCIDevices)},
		{"IdleSleep", int64(c.IdleSleep)},
		{"DeliveryTimeout", int64(c.DeliveryTimeout)},
	} {
		if k.v < 0 {
			return fmt.Errorf("core: Config.%s must be non-negative, got %d", k.name, k.v)
		}
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.Localities == 0 {
		c.Localities = 2
	}
	if c.WorkersPerLocality == 0 {
		c.WorkersPerLocality = 2
	}
	if c.Parcelport == "" {
		c.Parcelport = "lci"
	}
	if c.Fabric.Nodes == 0 && c.Fabric.LatencyNs == 0 && c.Fabric.GbitsPerSec == 0 {
		// Fill in the interconnect model field-wise so a config that only
		// sets fault/reliability knobs (or Rails etc.) keeps them.
		def := fabric.DefaultConfig(c.Localities)
		c.Fabric.LatencyNs = def.LatencyNs
		c.Fabric.GbitsPerSec = def.GbitsPerSec
		if c.Fabric.Rails == 0 {
			c.Fabric.Rails = def.Rails
		}
		if c.Fabric.PacketOverheadBytes == 0 {
			c.Fabric.PacketOverheadBytes = def.PacketOverheadBytes
		}
	}
	if c.InlineBudget == 0 {
		c.InlineBudget = defaultInlineBudget(c.AggFlushBytes)
	}
	if c.LCIDevices == 0 {
		c.LCIDevices = 1
	}
	c.Fabric.Nodes = c.Localities
	if c.Fabric.DevicesPerNode < c.LCIDevices {
		c.Fabric.DevicesPerNode = c.LCIDevices
	}
}

// Runtime is the simulated cluster: all localities plus the shared fabric
// and action registry.
type Runtime struct {
	cfg   Config
	ppCfg parcelport.Config
	net   *fabric.Network
	locs  []*Locality
	world *mpisim.World // MPI transport only
	// wd watches the localities' dedicated progress threads (lci pin mode
	// only; nil otherwise): one ticker for the whole runtime.
	wd     *amt.Watchdog
	regMu  sync.RWMutex
	byName map[string]uint32
	byID   []ActionFunc
	names  []string
	inline []bool // per-action inline hint (parallel to byID)

	// actionTab is the immutable snapshot of byID published at Start: the
	// registry is sealed then, so per-parcel dispatch reads one atomic
	// pointer instead of taking regMu.
	actionTab atomic.Pointer[[]ActionFunc]
	// inlineTab is the sealed snapshot of the inline hints, published with
	// actionTab. The receive path consults it per parcel, lock-free.
	inlineTab atomic.Pointer[[]bool]
	// actionSvc is the per-action service-time EWMA in ns (α = 1/4, samples
	// clipped to inlineSampleClipNs; 0 = never sampled), sized to the sealed
	// registry at Start. An action whose EWMA is at or above inlineHeavyNs is
	// demoted: deliver spawns it instead of running it inline — the safety
	// escape that keeps a mis-hinted action from stalling the completion
	// drain. Both lanes feed it (runInlineBatch per run of parcels, the
	// spawned path while the action is demoted), so the gate corrects
	// itself in either direction; see observeService. Each slot has its own
	// cache line: different localities' drains update different actions
	// (the continuation on a caller, a shard action on its owner), and
	// which ids sit side by side depends only on registration order.
	actionSvc []svcSlot

	// Collectives subsystem (see collectives.go): the reserved relay and
	// data action ids, the per-call fold table, and the collective-id
	// allocator.
	coll collRuntime

	started atomic.Bool
	stopped atomic.Bool
}

// NewRuntime builds (but does not start) a runtime. Register actions, then
// call Start.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	ppCfg, err := parcelport.ParseConfig(cfg.Parcelport)
	if err != nil {
		return nil, err
	}
	if cfg.Aggregation {
		ppCfg.Aggregate = true
	}
	net, err := fabric.NewNetwork(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, ppCfg: ppCfg, net: net, byName: make(map[string]uint32)}
	if ppCfg.Transport == parcelport.TransportLCI && ppCfg.Progress == parcelport.PinnedProgress {
		rt.wd = amt.NewWatchdog()
	}
	// Reserve the continuation action. It is inline-hinted: Future.Set is
	// non-blocking (mutex, close, callback spawns), so completing a Call on
	// the draining goroutine saves the spawn that dominates small-response
	// latency.
	rt.byID = append(rt.byID, rt.runContinuation)
	rt.names = append(rt.names, "__continuation")
	rt.byName["__continuation"] = continuationAction
	rt.inline = append(rt.inline, true)
	// The tree-collective relay and data-plane actions (collectives.go).
	rt.registerCollectiveActions()

	if ppCfg.Transport == parcelport.TransportMPI {
		rt.world = mpisim.NewWorld(net, mpisim.Config{})
	}
	rt.locs = make([]*Locality, cfg.Localities)
	for i := range rt.locs {
		loc, err := rt.buildLocality(i)
		if err != nil {
			return nil, err
		}
		rt.locs[i] = loc
	}
	return rt, nil
}

// buildLocality wires scheduler, parcelport and parcel layer for node i.
func (rt *Runtime) buildLocality(i int) (*Locality, error) {
	loc := &Locality{rt: rt, id: i, conts: make(map[uint64]contEntry), collBoxes: make(map[uint64]*collBox)}
	if rt.cfg.InlineBudget > 0 {
		loc.inlineBudget = rt.cfg.InlineBudget
	}
	name := fmt.Sprintf("locality-%d", i)
	loc.sched = amt.New(amt.Config{
		Workers:   rt.cfg.WorkersPerLocality,
		Name:      name,
		IdleSleep: rt.cfg.IdleSleep,
		Watchdog:  rt.wd,
	})
	var lpp *lcipp.Parcelport // LCI transport only
	switch rt.ppCfg.Transport {
	case parcelport.TransportMPI:
		loc.pp = mpipp.New(rt.world.Comm(i), mpipp.Config{Original: rt.ppCfg.Original})
	case parcelport.TransportLCI:
		devs := make([]*lci.Device, rt.cfg.LCIDevices)
		for di := range devs {
			devs[di] = lci.NewDevice(rt.net.DeviceN(i, di), lci.Config{}, nil)
		}
		var err error
		lpp, err = lcipp.NewMulti(devs, loc.sched, lcipp.Config{
			Protocol:   rt.ppCfg.Protocol,
			Completion: rt.ppCfg.Completion,
			Progress:   rt.ppCfg.Progress,
		})
		if err != nil {
			return nil, err
		}
		loc.pp = lpp
		loc.lciDevs = devs
	}
	if rt.ppCfg.Aggregate {
		agg := parcelport.NewAggregator(loc.pp, rt.cfg.Localities, parcelport.AggConfig{
			FlushBytes: rt.cfg.AggFlushBytes,
			FlushDelay: rt.cfg.AggFlushDelay,
		})
		if lpp != nil {
			// A producer that fills a bundle polls the devices once, so its
			// stream cannot hold replies to it in the network.
			agg.SetSendPoll(lpp.PollDevices)
		}
		loc.pp, loc.agg = agg, agg
	}
	loc.layer = parcel.NewLayer(rt.cfg.Localities, parcel.Config{Immediate: rt.ppCfg.Immediate}, loc.pp.Send)
	if loc.agg != nil {
		// Bundled fast path: encode small parcels straight into the bundle
		// buffer instead of through a per-message scratch.
		loc.layer.SetParcelSender(loc.agg.SendParcel)
	} else if lpp != nil {
		// Direct path: serialize small parcels straight into the LCI packet
		// and post them connectionless.
		loc.layer.SetParcelSender(lpp.SendParcel)
	}
	pass := loc.pp.BackgroundWork
	reap := rt.cfg.DeliveryTimeout > 0 || rt.net.Config().Reliability
	if reap {
		// Fold the continuation reaper into the background pass so delivery
		// timeouts and dead peers are noticed without a thread of its own.
		pp := pass
		pass = func(workerID int) bool {
			did := pp(workerID)
			if loc.reapDeadContinuations() {
				did = true
			}
			return did
		}
	}
	drainLane := "amt-worker"
	if lpp != nil && rt.ppCfg.Progress == parcelport.PinnedProgress {
		// The dedicated progress thread runs the whole pass after each
		// progress call and is the locality's only poller: with no
		// background pass installed the scheduler starts no poll loops.
		lpp.SetProgressHook(func() { pass(0) })
		drainLane = "progress"
	} else {
		loc.sched.SetBackground(pass)
	}
	loc.inlineLabels = pprof.WithLabels(context.Background(), pprof.Labels("lane", "inline-deliver", "sched", name))
	loc.drainLabels = pprof.WithLabels(context.Background(), pprof.Labels("lane", drainLane, "sched", name))
	return loc, nil
}

// RegisterAction registers fn under name on every locality. Must be called
// before Start; registration is process-wide so action ids agree everywhere.
func (rt *Runtime) RegisterAction(name string, fn ActionFunc) (uint32, error) {
	if rt.started.Load() {
		return 0, fmt.Errorf("core: RegisterAction(%q) after Start", name)
	}
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	if _, dup := rt.byName[name]; dup {
		return 0, fmt.Errorf("core: action %q already registered", name)
	}
	id := uint32(len(rt.byID))
	rt.byID = append(rt.byID, fn)
	rt.names = append(rt.names, name)
	rt.byName[name] = id
	rt.inline = append(rt.inline, false)
	return id, nil
}

// MustRegisterAction is RegisterAction, panicking on error (init-time use).
func (rt *Runtime) MustRegisterAction(name string, fn ActionFunc) uint32 {
	id, err := rt.RegisterAction(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// RegisterInlineAction registers fn with the inline hint: the action
// promises to be small and non-blocking (no future waits, no long compute,
// no unbounded locks), so the receive path may run it to completion on the
// draining goroutine instead of spawning a task, and a Call from its own
// locality runs it directly on the caller (see Call). A hinted action that
// nonetheless runs long is demoted to spawning by the service-time escape
// for as long as it keeps measuring heavy, and re-admitted once it measures
// light again (see actionSvc); one that *blocks* stalls its drain goroutine
// for that one run and is demoted by the sample that run produces — the hint
// is a promise, not a sandbox. Meanwhile the locality keeps draining: in mt
// mode its other workers pick up the slack, and in pin mode, where the
// progress thread is the only poller, the runtime's watchdog has a helper
// run the progress pass in its place within a millisecond or two. A helper
// that blocks in turn, on a second run of an action not yet demoted, is
// taken over the same way.
func (rt *Runtime) RegisterInlineAction(name string, fn ActionFunc) (uint32, error) {
	id, err := rt.RegisterAction(name, fn)
	if err != nil {
		return 0, err
	}
	rt.regMu.Lock()
	rt.inline[id] = true
	rt.regMu.Unlock()
	return id, nil
}

// MustRegisterInlineAction is RegisterInlineAction, panicking on error.
func (rt *Runtime) MustRegisterInlineAction(name string, fn ActionFunc) uint32 {
	id, err := rt.RegisterInlineAction(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// MarkActionInline sets the inline hint on an already-registered action
// (same promise as RegisterInlineAction). Must be called before Start.
func (rt *Runtime) MarkActionInline(name string) error {
	if rt.started.Load() {
		return fmt.Errorf("core: MarkActionInline(%q) after Start", name)
	}
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	id, ok := rt.byName[name]
	if !ok {
		return fmt.Errorf("core: MarkActionInline: unknown action %q", name)
	}
	rt.inline[id] = true
	return nil
}

// ActionID resolves a registered action name.
func (rt *Runtime) ActionID(name string) (uint32, bool) {
	rt.regMu.RLock()
	defer rt.regMu.RUnlock()
	id, ok := rt.byName[name]
	return id, ok
}

// action returns the handler for an id, or nil. After Start it is lock-free
// (one atomic load of the sealed table); before Start it falls back to the
// registration lock.
func (rt *Runtime) action(id uint32) ActionFunc {
	if tab := rt.actionTab.Load(); tab != nil {
		t := *tab
		if int(id) >= len(t) {
			return nil
		}
		return t[id]
	}
	rt.regMu.RLock()
	defer rt.regMu.RUnlock()
	if int(id) >= len(rt.byID) {
		return nil
	}
	return rt.byID[id]
}

// Start launches every locality's parcelport and scheduler.
func (rt *Runtime) Start() error {
	if !rt.started.CompareAndSwap(false, true) {
		return fmt.Errorf("core: runtime already started")
	}
	// The registry is sealed now (RegisterAction rejects once started):
	// publish the immutable action table for lock-free dispatch.
	rt.regMu.RLock()
	tab := append([]ActionFunc(nil), rt.byID...)
	itab := append([]bool(nil), rt.inline...)
	rt.regMu.RUnlock()
	rt.actionSvc = make([]svcSlot, len(tab))
	rt.actionTab.Store(&tab)
	rt.inlineTab.Store(&itab)
	if rt.wd != nil {
		rt.wd.Start()
	}
	for _, loc := range rt.locs {
		loc := loc
		if err := loc.pp.Start(loc.deliver); err != nil {
			return err
		}
		if err := loc.sched.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown stops schedulers and parcelports. In-flight work is abandoned.
func (rt *Runtime) Shutdown() {
	if !rt.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, loc := range rt.locs {
		loc.sched.Stop()
	}
	for _, loc := range rt.locs {
		loc.pp.Stop()
	}
	if rt.wd != nil {
		rt.wd.Stop()
	}
}

// Localities returns the number of localities.
func (rt *Runtime) Localities() int { return len(rt.locs) }

// Locality returns locality i.
func (rt *Runtime) Locality(i int) *Locality { return rt.locs[i] }

// ParcelportName returns the full Table 1 configuration string.
func (rt *Runtime) ParcelportName() string { return rt.ppCfg.String() }

// Network exposes the fabric (tests and stats).
func (rt *Runtime) Network() *fabric.Network { return rt.net }

// MPIComm exposes a locality's MPI communicator for profiling; nil when the
// runtime does not use the MPI transport.
func (rt *Runtime) MPIComm(loc int) *mpisim.Comm {
	if rt.world == nil {
		return nil
	}
	return rt.world.Comm(loc)
}

// LCIDevice exposes a locality's first LCI device for profiling; nil when
// the runtime does not use the LCI transport.
func (l *Locality) LCIDevice() *lci.Device {
	if len(l.lciDevs) == 0 {
		return nil
	}
	return l.lciDevs[0]
}

// runContinuation is the reserved action that fulfils Call futures:
// args[0] = 8-byte continuation id, args[1:] = results.
func (rt *Runtime) runContinuation(loc *Locality, args [][]byte) [][]byte {
	if len(args) == 0 || len(args[0]) != 8 {
		return nil
	}
	id := binary.LittleEndian.Uint64(args[0])
	loc.contMu.Lock()
	e, ok := loc.conts[id]
	delete(loc.conts, id)
	loc.contMu.Unlock()
	if ok {
		e.f.Set(args[1:], nil)
	}
	return nil
}

// contEntry is one Call awaiting its remote result.
type contEntry struct {
	f          *amt.Future[[][]byte]
	dst        int
	deadlineNs int64 // monoNs deadline; 0 = no deadline
}

// Locality is one simulated compute node: scheduler, parcelport, parcel
// layer and continuation table.
type Locality struct {
	rt      *Runtime
	id      int
	sched   *amt.Scheduler
	pp      parcelport.Parcelport
	agg     *parcelport.Aggregator // pp when aggregation is on, else nil
	layer   *parcel.Layer
	lciDevs []*lci.Device // LCI transport only (stats)
	// inlineBudget is the inline-lane count budget per delivered message or
	// bundle, resolved from Config.InlineBudget at construction (0 = lane
	// off).
	inlineBudget int
	// inlineLabels and drainLabels are the pprof labels of the inline lane
	// and of the goroutines that drain this locality (its progress threads
	// in lci pin mode, its worker poll loops otherwise); see
	// EnableProfilingLabels.
	inlineLabels, drainLabels context.Context

	contMu   sync.Mutex
	conts    map[uint64]contEntry
	nextCont atomic.Uint64

	// Collective inboxes buffer all-to-all blocks that may arrive before
	// this node has entered the collective. See collectives.go.
	collMu      sync.Mutex
	collBoxes   map[uint64]*collBox
	collSweepNs atomic.Int64

	nextReapNs      atomic.Int64 // rate-gates the continuation reaper
	parcelsExecuted atomic.Uint64
	decodeErrors    atomic.Uint64
	unknownDrops    atomic.Uint64 // parcels dropped for an unregistered action id
	reapedCalls     atomic.Uint64 // Call futures failed by reapDeadContinuations
	inlineExecuted  atomic.Uint64 // parcels run on the inline lane
	inlineSpilled   atomic.Uint64 // inline-eligible parcels demoted to spawn
	inlineDemotions atomic.Uint64 // actions whose EWMA crossed up over inlineHeavyNs
	inlineReadmits  atomic.Uint64 // actions whose EWMA came back under it
	inlineTick      atomic.Uint32 // alternates the timing of cheap single-run batches

	// delivPool recycles delivery contexts (parcel slab + task slots) so the
	// steady-state receive path allocates nothing. See deliver.
	delivPool sync.Pool
}

// ID returns the locality id (the MPI-rank analogue).
func (l *Locality) ID() int { return l.id }

// Scheduler exposes the locality's task scheduler.
func (l *Locality) Scheduler() *amt.Scheduler { return l.sched }

// ParcelLayer exposes the parcel layer (stats).
func (l *Locality) ParcelLayer() *parcel.Layer { return l.layer }

// ParcelsExecuted counts action invocations that arrived via parcels.
func (l *Locality) ParcelsExecuted() uint64 { return l.parcelsExecuted.Load() }

// DecodeErrors counts received messages dropped because they failed to
// decode (protocol corruption).
func (l *Locality) DecodeErrors() uint64 { return l.decodeErrors.Load() }

// InlineExecuted counts parcels run to completion on the draining goroutine
// (the inline lane of deliver).
func (l *Locality) InlineExecuted() uint64 { return l.inlineExecuted.Load() }

// InlineSpilled counts parcels admitted to an inline batch that were handed
// to spawned tasks because the batch's wall cap expired mid-drain.
func (l *Locality) InlineSpilled() uint64 { return l.inlineSpilled.Load() }

// InlineDemotions counts the times this locality's samples moved a hinted
// action's service EWMA over the heavy ceiling (state changes, not parcels).
func (l *Locality) InlineDemotions() uint64 { return l.inlineDemotions.Load() }

// InlineReadmissions counts the times this locality's samples brought a
// demoted action's service EWMA back under the ceiling.
func (l *Locality) InlineReadmissions() uint64 { return l.inlineReadmits.Load() }

// UnknownActionDrops counts received parcels dropped because their action id
// is not registered. A dropped parcel that carried a continuation leaves its
// caller's future to the delivery timeout.
func (l *Locality) UnknownActionDrops() uint64 { return l.unknownDrops.Load() }

// PendingContinuations reports Call futures still awaiting their remote
// results. An entry leaves the table when its response arrives or, with
// Config.DeliveryTimeout > 0 or fabric reliability on, when the reaper fails
// it (deadline passed, or peer declared down); otherwise a call whose
// response never comes stays pending.
func (l *Locality) PendingContinuations() int {
	l.contMu.Lock()
	defer l.contMu.Unlock()
	return len(l.conts)
}

// Spawn schedules a local task.
func (l *Locality) Spawn(f func()) { l.sched.Spawn(f) }

// Async runs fn as a local task and returns a future for its result.
func Async[T any](l *Locality, fn func() (T, error)) *amt.Future[T] {
	return amt.Async(l.sched, fn)
}

// Apply invokes a registered action on dst, fire-and-forget.
func (l *Locality) Apply(dst int, action string, args ...[]byte) error {
	id, ok := l.rt.ActionID(action)
	if !ok {
		return fmt.Errorf("core: unknown action %q", action)
	}
	return l.ApplyID(dst, id, args)
}

// ApplyID is Apply with a pre-resolved action id (hot paths).
func (l *Locality) ApplyID(dst int, id uint32, args [][]byte) error {
	if dst < 0 || dst >= l.rt.Localities() {
		return fmt.Errorf("core: invalid destination locality %d", dst)
	}
	if dst == l.id {
		// Local invocation short-circuits the network, as in HPX.
		fn := l.rt.action(id)
		if fn == nil {
			return fmt.Errorf("core: unknown action id %d", id)
		}
		l.sched.Spawn(func() {
			fn(l, args)
		})
		return nil
	}
	if l.peerDown(dst) {
		return fmt.Errorf("core: apply to locality %d: %w", dst, ErrPeerUnreachable)
	}
	l.layer.PutOne(serialization.Parcel{Source: l.id, Dest: dst, Action: id, Args: args})
	return nil
}

// Call invokes an action on dst and returns a future for its results. When
// dst is the caller's own locality and the action carries the inline hint, it
// runs to completion on the calling goroutine before Call returns (HPX's
// direct action), so the future comes back already set.
func (l *Locality) Call(dst int, action string, args ...[]byte) *amt.Future[[][]byte] {
	f := amt.NewFuture[[][]byte](l.sched)
	id, ok := l.rt.ActionID(action)
	if !ok {
		f.Set(nil, fmt.Errorf("core: unknown action %q", action))
		return f
	}
	return l.callID(dst, id, args, f)
}

// CallID is Call with a pre-resolved action id.
func (l *Locality) CallID(dst int, id uint32, args [][]byte) *amt.Future[[][]byte] {
	return l.callID(dst, id, args, amt.NewFuture[[][]byte](l.sched))
}

func (l *Locality) callID(dst int, id uint32, args [][]byte, f *amt.Future[[][]byte]) *amt.Future[[][]byte] {
	if dst < 0 || dst >= l.rt.Localities() {
		f.Set(nil, fmt.Errorf("core: invalid destination locality %d", dst))
		return f
	}
	fn := l.rt.action(id)
	if fn == nil {
		f.Set(nil, fmt.Errorf("core: unknown action id %d", id))
		return f
	}
	if dst == l.id {
		// Local invocation short-circuits the network. An inline-hinted
		// action is HPX's direct action: it runs right here on the caller,
		// which gets back a future that is already set. Anything else is
		// spawned, so the caller can overlap it with its own work.
		if l.directAction(id) {
			l.sched.RunInline(func() { f.Set(fn(l, args), nil) })
		} else {
			l.sched.Spawn(func() { f.Set(fn(l, args), nil) })
		}
		return f
	}
	if l.peerDown(dst) {
		f.Set(nil, fmt.Errorf("core: call to locality %d: %w", dst, ErrPeerUnreachable))
		return f
	}
	cid := l.nextCont.Add(1)
	var deadline int64
	if d := l.rt.cfg.DeliveryTimeout; d > 0 {
		deadline = monoNs() + int64(d)
	}
	l.contMu.Lock()
	l.conts[cid] = contEntry{f: f, dst: dst, deadlineNs: deadline}
	l.contMu.Unlock()
	l.layer.PutOne(serialization.Parcel{Source: l.id, Dest: dst, Action: id, ContID: cid, Args: args})
	return f
}

// directAction reports whether a local Call of action id runs on the caller:
// the action carries the inline hint and the inline lane is on
// (Config.InlineBudget ≥ 0). The service-time escape does not apply, since no
// drain goroutine is held up, only the caller, which asked for the result.
// Before Start no hint table is sealed and every local Call spawns.
func (l *Locality) directAction(id uint32) bool {
	if l.inlineBudget <= 0 {
		return false
	}
	tab := l.rt.inlineTab.Load()
	return tab != nil && int(id) < len(*tab) && (*tab)[id]
}

// peerDown reports whether the fabric has declared the path to dst dead.
func (l *Locality) peerDown(dst int) bool {
	return l.rt.net.PeerHealth(l.id, dst) == fabric.HealthDown
}

// reapDeadContinuations fails Call futures whose deadline passed or whose
// destination the fabric declared down, and discards parcels queued for dead
// peers. Rate-gated to one pass per millisecond per locality; reports
// whether any future was reaped. Deadlines and the gate are on the
// monotonic clock, so a wall-clock step neither reaps a live call early nor
// holds a dead one past its deadline.
func (l *Locality) reapDeadContinuations() bool {
	now := monoNs()
	next := l.nextReapNs.Load()
	if now < next || !l.nextReapNs.CompareAndSwap(next, now+int64(time.Millisecond)) {
		return false
	}
	downCache := make(map[int]bool)
	isDown := func(dst int) bool {
		v, ok := downCache[dst]
		if !ok {
			v = l.peerDown(dst)
			downCache[dst] = v
		}
		return v
	}
	var victims []contEntry
	l.contMu.Lock()
	for id, e := range l.conts {
		if (e.deadlineNs > 0 && now > e.deadlineNs) || isDown(e.dst) {
			delete(l.conts, id)
			victims = append(victims, e)
		}
	}
	l.contMu.Unlock()
	for dst, down := range downCache {
		if down {
			l.layer.DiscardDest(dst)
		}
	}
	l.reapedCalls.Add(uint64(len(victims)))
	for _, e := range victims {
		e.f.Set(nil, fmt.Errorf("core: call to locality %d: no response before delivery timeout: %w",
			e.dst, ErrPeerUnreachable))
	}
	return len(victims) > 0
}

// delivery is the pooled receive context of one received transfer (an HPX
// message or a whole aggregation bundle): the parcel slab it decodes into,
// one reusable task slot per parcel (with a pre-bound spawn closure, so
// per-parcel spawning allocates nothing), and the transfer's buffer owner,
// released when the last task finishes. A delivery returns to its locality's
// pool only at refcount zero, so the pooled network buffers the decoded args
// alias stay valid for exactly as long as any task can read them.
type delivery struct {
	l      *Locality
	buf    serialization.DecodeBuf
	msg    *serialization.Message // the transfer, for as long as owner holds it
	owner  serialization.RecvOwner
	refs   atomic.Int32
	tasks  []*parcelTask // pointer-stable reusable slots
	runs   []func()      // scratch batch handed to SpawnBatch
	inline []*parcelTask // scratch batch run on the inline lane
}

// parcelTask is one parcel's reusable spawn slot. run is the method value
// bound to exec, created once per slot and reused for every delivery.
type parcelTask struct {
	d  *delivery
	p  *serialization.Parcel
	fn ActionFunc
	// sample makes the spawned path time fn and fold it into the action's
	// service EWMA: set for parcels of a demoted hinted action (so a light
	// action finds its way back to the inline lane) and for parcels an
	// inline batch spilled.
	sample bool
	run    func()
}

// task returns slot i, growing the slot list on first use.
func (d *delivery) task(i int) *parcelTask {
	for len(d.tasks) <= i {
		t := &parcelTask{d: d}
		t.run = t.exec
		d.tasks = append(d.tasks, t)
	}
	return d.tasks[i]
}

// exec is the spawned path of one parcel: run it, account for it, drop its
// delivery reference.
func (t *parcelTask) exec() {
	d := t.d
	d.l.parcelsExecuted.Add(1) // before the action: whoever sees its effects sees it counted
	t.invoke(t.sample)
	d.unref(1)
}

// invoke runs one parcel's action and sends the reply its continuation asks
// for. Both lanes call it; the accounting (counters, delivery reference) is
// the caller's, so the inline lane can do it per run and per batch.
func (t *parcelTask) invoke(sample bool) {
	d := t.d
	l := d.l
	p := t.p
	if p.Action == continuationAction {
		// runContinuation publishes args[1:] to the Call future, which the
		// caller reads after this task is gone, the parcel slab recycled and
		// the receive buffers back in their pools: detach headers and bytes.
		p.Args = detachArgs(p.Args)
	}
	var results [][]byte
	if sample {
		// Worker-side and fn only: a mis-hinted action that blocks is
		// measured here without a drain waiting on it.
		t0 := monoNs()
		results = t.fn(l, p.Args)
		l.observeService(p.Action, monoNs()-t0)
	} else {
		results = t.fn(l, p.Args)
	}
	if p.ContID != 0 {
		var idBuf [8]byte
		binary.LittleEndian.PutUint64(idBuf[:], p.ContID)
		args := append([][]byte{idBuf[:]}, results...)
		if d.owner != nil {
			// The reply parcel may be queued and encoded after this task
			// returns (connection-cache backpressure defers the encode), so a
			// result that aliases the delivered message — an echo action
			// returning its args — must not point into buffers about to be
			// recycled. A result the action allocated goes out as it is.
			for i, r := range args[1:] {
				if len(r) > 0 && d.msg.Aliases(r) {
					args[1+i] = append([]byte(nil), r...)
				}
			}
		}
		_ = l.ApplyID(p.Source, continuationAction, args)
	}
}

// detachArgs returns a garbage-collected copy of args — a fresh outer slice
// and fresh bytes — for a consumer that outlives the action the args were
// delivered to (DESIGN.md §9: an arg is valid until its action returns,
// whatever its size). Small args share one backing array; an arg of
// detachOwnAlloc bytes or more gets its own append copy, which unlike make
// does not zero the memory it is about to overwrite.
func detachArgs(args [][]byte) [][]byte {
	const detachOwnAlloc = 4096
	out := append(make([][]byte, 0, len(args)), args...) // empty args stay as they are
	total := 0
	for i, a := range args {
		if len(a) >= detachOwnAlloc {
			out[i] = append([]byte(nil), a...)
		} else {
			total += len(a)
		}
	}
	if total == 0 {
		return out
	}
	backing := make([]byte, 0, total)
	for i, a := range args {
		if n := len(a); n > 0 && n < detachOwnAlloc {
			backing = append(backing, a...)
			out[i] = backing[len(backing)-n : len(backing) : len(backing)]
		}
	}
	return out
}

// unref drops n task references; the last one releases the transfer's
// buffers and recycles the delivery context.
func (d *delivery) unref(n int) {
	if d.refs.Add(-int32(n)) > 0 {
		return
	}
	d.recycle()
}

// recycle releases the transfer's buffers and returns d to the pool.
func (d *delivery) recycle() {
	if d.owner != nil {
		d.owner.Release()
		d.owner = nil
	}
	d.l.delivPool.Put(d)
}

// Deliver feeds a message straight into the locality's receiver datapath,
// exactly as the parcelport's delivery callback would. It exists for the
// datapath benchmark harness (internal/bench), which measures the decode →
// dispatch → spawn → execute path without a wire in between.
func (l *Locality) Deliver(m *serialization.Message) { l.deliver(m) }

// Inline-lane bounds. The count budget comes from Config.InlineBudget; the
// rest cap the other two axes of the drain budget and shape the escape.
const (
	// inlineMaxArgBytes is the per-parcel eligibility cutoff: a parcel
	// whose summed arg bytes exceed it is not "small" and always spawns.
	inlineMaxArgBytes = 1024
	// inlineBytesBudget caps the summed arg bytes run inline per delivery,
	// so many just-under-cutoff parcels cannot add up to a long stall.
	inlineBytesBudget = 16 * 1024
	// inlineTimeBudget caps the wall time one delivery's inline batch may
	// occupy the draining goroutine; the remainder spills to SpawnBatch.
	// Sized so a full default bundle of light (<~2µs) actions fits.
	inlineTimeBudget = 100 * time.Microsecond
	// inlineHeavyNs is the per-action service EWMA at which an action loses
	// inline eligibility (one inline run stalls the drain by its full
	// service time), and under which it gets it back.
	inlineHeavyNs = 20_000
	// inlineSampleClipNs bounds one sample's pull on the EWMA. At 2× the
	// ceiling with α = 1/4, a single outlier — a preempted run — lifts a
	// light action to at most half the ceiling; it takes three heavy
	// samples in close succession to demote, and three light ones to come
	// back from the clip.
	inlineSampleClipNs = 2 * inlineHeavyNs
	// inlineRunMax is the longest run of same-action parcels executed
	// between two clock reads.
	inlineRunMax = 8
	// inlineCheapNs is the service EWMA under which a batch that is one
	// run is timed only every other time: such a run is far from both the
	// heavy ceiling and the wall cap, and half its samples keep the EWMA
	// current (a heavy sample lifts it over this line at once).
	inlineCheapNs = inlineHeavyNs / 4
)

// svcSlot is one action's service-time EWMA, padded to a cache line.
type svcSlot struct {
	atomic.Int64
	_ [56]byte
}

// monoBase anchors monoNs.
var monoBase = time.Now()

// monoNs is a monotonic nanosecond clock for service-time samples: time.Since
// on a base that carries a monotonic reading reads only the monotonic clock,
// where time.Now reads the wall clock too.
func monoNs() int64 { return int64(time.Since(monoBase)) }

// defaultInlineBudget is what a zero Config.InlineBudget resolves to: the
// most parcels one size-flushed aggregation bundle can carry (a bundle leaves
// at the first frame that takes it to flushBytes, and no frame is smaller
// than an argument-less parcel's), so a full bundle of small parcels runs
// entirely inline whatever their size. flushBytes is Config.AggFlushBytes;
// zero means the aggregation default.
func defaultInlineBudget(flushBytes int) int {
	if flushBytes == 0 {
		flushBytes = parcelport.DefaultAggFlushBytes
	}
	minFrame := wire.FrameHeaderSize + serialization.EncodedSizeInline(&serialization.Parcel{})
	return flushBytes/minFrame + 1
}

// observeService folds one service-time sample of action aid into its EWMA.
// The sample is clipped (inlineSampleClipNs), the first one seeds the
// estimate. A crossing of the heavy ceiling in either direction is a state
// change: it bumps this locality's demotion or re-admission counter — the
// CAS makes every crossing observed by exactly one caller.
func (l *Locality) observeService(aid uint32, ns int64) {
	ns = max(1, min(ns, inlineSampleClipNs)) // 0 is "never sampled"
	sv := &l.rt.actionSvc[aid]
	for {
		old := sv.Load()
		est := ns
		if old != 0 {
			est = old + (ns-old)/4
		}
		if !sv.CompareAndSwap(old, est) {
			continue
		}
		if heavy := est >= inlineHeavyNs; heavy != (old >= inlineHeavyNs) {
			if heavy {
				l.inlineDemotions.Add(1)
			} else {
				l.inlineReadmits.Add(1)
			}
		}
		return
	}
}

// EnableProfilingLabels toggles the pprof label upkeep that splits a CPU
// profile into progress, worker-poll, inline-deliver and task samples
// (`go tool pprof -tags`): the inline lane runs its batch under
// lane=inline-deliver and then relabels the draining goroutine with the
// locality's drain lane, and amt keeps its runners and poll goroutines
// labelled (amt.EnableProfilingLabels). The label sets are built once per
// locality, so the swap does not allocate; off by default.
func EnableProfilingLabels(on bool) { amt.EnableProfilingLabels(on) }

// deliver is the parcelport's delivery callback: decode the transfer — one
// HPX message, or every frame of an aggregation bundle — into a pooled
// parcel slab, run the small inline-hinted parcels to completion right here
// on the draining goroutine, and batch-spawn the rest. A bundle is one
// delivery: one pooled context, one owner reference, one pass over the
// action and hint tables, one SpawnBatch and one inline batch, whatever its
// frame count. In steady state the whole path — decode, dispatch,
// inline-execute or spawn, buffer recycle — performs zero allocations
// (enforced by TestDeliverBundleZeroAllocs, TestDeliverInlineBundleZeroAllocs
// and TestDeliverHPXBBundleZeroAllocs).
//
// The inline lane is the run-to-completion optimization: a small parcel's
// spawn handoff (runner pop, channel send, wakeup) costs more than its
// action body, so eligible parcels skip the scheduler entirely. Eligibility
// per parcel: the action carries the inline hint, its service-time EWMA is
// below the heavy ceiling, the args are small, and the per-delivery count
// and byte budgets have room. The spill batch spawns *first*, so heavy
// work overlaps the inline runs instead of queueing behind them.
func (l *Locality) deliver(m *serialization.Message) {
	d, _ := l.delivPool.Get().(*delivery)
	if d == nil {
		d = &delivery{l: l}
	}
	parcels, err := serialization.DecodeInto(&d.buf, m)
	if err != nil {
		// Corrupted transfer: count it and drop it — for a bundle, from the
		// corrupt frame on; the frames before it are in parcels and deliver.
		l.decodeErrors.Add(1)
	}
	if frames := d.buf.Frames(); frames > 0 && l.agg != nil {
		l.agg.NoteUnbundled(frames)
	}
	d.msg, d.owner = m, m.Owner
	if len(parcels) == 0 {
		// Still release the pooled buffers so they return to their pools.
		d.recycle()
		return
	}
	// The registry is sealed before any parcelport starts (Runtime.Start).
	actions := *l.rt.actionTab.Load()
	var hints []bool
	budget := l.inlineBudget
	if budget > 0 {
		hints = *l.rt.inlineTab.Load()
	}
	runs := d.runs[:0]
	inl := d.inline[:0]
	inlBytes := 0
	n := 0
	// Consecutive parcels of one action share one look at its EWMA.
	lastAct, lastLight := ^uint32(0), false
	for i := range parcels {
		p := &parcels[i]
		if int(p.Action) >= len(actions) || actions[p.Action] == nil {
			l.unknownDrops.Add(1)
			continue
		}
		t := d.task(n)
		t.p, t.fn, t.sample = p, actions[p.Action], false
		n++
		if int(p.Action) < len(hints) && hints[p.Action] {
			if p.Action != lastAct {
				lastAct, lastLight = p.Action, l.rt.actionSvc[p.Action].Load() < inlineHeavyNs
			}
			if !lastLight {
				t.sample = true
			} else if len(inl) < budget {
				ab := 0
				for _, a := range p.Args {
					ab += len(a)
				}
				if ab <= inlineMaxArgBytes && inlBytes+ab <= inlineBytesBudget {
					inlBytes += ab
					inl = append(inl, t)
					continue
				}
			}
		}
		runs = append(runs, t.run)
	}
	d.runs, d.inline = runs, inl
	if n == 0 {
		d.recycle()
		return
	}
	// One extra reference guards d for the duration of the inline batch:
	// without it a spilled task finishing early could recycle d under our
	// feet while we still iterate d.inline.
	d.refs.Store(int32(n) + 1)
	if len(runs) > 0 {
		l.sched.SpawnBatch(runs)
	}
	ran := 0
	if len(inl) > 0 {
		if amt.ProfilingLabels() {
			pprof.SetGoroutineLabels(l.inlineLabels)
			ran = l.runInlineBatch(d)
			pprof.SetGoroutineLabels(l.drainLabels)
		} else {
			ran = l.runInlineBatch(d)
		}
	}
	d.unref(ran + 1)
}

// runInlineBatch executes d.inline on the calling (draining) goroutine and
// returns how many parcels it ran; their delivery references are the
// caller's to drop. The batch proceeds in runs of up to inlineRunMax parcels
// of one action, shortened so that a run's expected service time stays
// under the heavy ceiling (a never-sampled action runs alone). The clock is
// read once per run: the run's mean feeds the action's EWMA, and the wall
// cap is checked there; once it has expired the remainder of the batch
// spills to spawned tasks. A batch that is a single run of a sampled action
// under inlineCheapNs reads no clock every other time (inlineTick) — on the
// direct path that is every single-parcel delivery of a light action.
// Scheduler and locality counters are bumped per run or per batch, never
// per parcel.
func (l *Locality) runInlineBatch(d *delivery) int {
	inl := d.inline
	var start, t0 int64 // read at the first timed run
	i := 0
	for i < len(inl) {
		aid := inl[i].p.Action
		est := l.rt.actionSvc[aid].Load()
		maxRun := 1
		if est > 0 {
			maxRun = int(min(inlineRunMax, max(1, inlineHeavyNs/est)))
		}
		j := i + 1
		for j < len(inl) && j-i < maxRun && inl[j].p.Action == aid {
			j++
		}
		timed := i > 0 || j < len(inl) || est == 0 || est >= inlineCheapNs || l.inlineTick.Add(1)&1 == 1
		if i == 0 && timed {
			start = monoNs()
			t0 = start
		}
		run := inl[i:j]
		i = j
		l.sched.BeginInline(len(run))
		l.parcelsExecuted.Add(uint64(len(run))) // before the actions, as on the spawned path
		for _, t := range run {
			t.invoke(false)
		}
		if !timed {
			continue // the whole batch: nothing left to cap
		}
		t1 := monoNs()
		l.observeService(aid, (t1-t0)/int64(len(run)))
		t0 = t1
		if i < len(inl) && time.Duration(t1-start) > inlineTimeBudget {
			rest := d.runs[:0]
			for _, u := range inl[i:] {
				u.sample = true
				rest = append(rest, u.run)
			}
			d.runs = rest
			l.sched.SpawnBatch(rest)
			l.inlineSpilled.Add(uint64(len(rest)))
			break
		}
	}
	l.inlineExecuted.Add(uint64(i))
	l.sched.EndInline(i) // last: a quiescent scheduler implies final counters
	return i
}
