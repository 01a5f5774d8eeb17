package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
)

// MsgRateParams configures one message-rate measurement (§4.1): a sender
// locality creates tasks at a fixed attempted rate; each task injects a
// batch of fixed-size messages; the receiver signals back once everything
// arrived.
type MsgRateParams struct {
	Size    int     // message payload bytes
	Batch   int     // messages injected per task
	Total   int     // total messages (rounded down to a batch multiple)
	Rate    float64 // attempted injection rate in messages/second (0 = unlimited)
	Workers int     // worker threads per locality
	Fabric  fabric.Config
	Timeout time.Duration
	// LCIDevices replicates the LCI device per locality (§7.2 ablation).
	LCIDevices int
	// Agg enables the sender-side aggregation layer.
	Agg bool
	// AggSize overrides the aggregation flush size threshold (bytes).
	AggSize int
	// AggDelay overrides the upper bound on a buffered message's age.
	AggDelay time.Duration
	// InlineOff disables the receiver's inline-execution lane (spawn-always,
	// the pre-inline behavior); the default runs small sink actions to
	// completion on the draining goroutine.
	InlineOff bool
	// InlineBudget overrides the inline count budget (0 = runtime default).
	InlineBudget int
	// Inspect, when non-nil, runs against the live runtime after the
	// measurement completes and before shutdown (profiling hooks).
	Inspect func(rt *core.Runtime)
}

// MsgRateResult is one data point of Figs 1-6.
type MsgRateResult struct {
	AttemptedRate float64 // messages/second requested (0 = unlimited)
	AchievedInj   float64 // messages/second actually generated
	MsgRate       float64 // messages/second actually received
}

// MessageRate runs the §4.1 microbenchmark under one parcelport
// configuration and returns the achieved injection and message rates.
func MessageRate(ppName string, p MsgRateParams) (MsgRateResult, error) {
	if p.Batch <= 0 || p.Total < p.Batch {
		return MsgRateResult{}, fmt.Errorf("bench: bad batch/total %d/%d", p.Batch, p.Total)
	}
	if p.Workers <= 0 {
		p.Workers = 2
	}
	if p.Timeout <= 0 {
		p.Timeout = 5 * time.Minute
	}
	if p.Fabric.Nodes == 0 {
		p.Fabric = Expanse.Fabric(2)
	}
	tasks := p.Total / p.Batch
	total := tasks * p.Batch

	inlineBudget := p.InlineBudget
	if p.InlineOff {
		inlineBudget = -1
	}
	rt, err := core.NewRuntime(core.Config{
		Localities:         2,
		WorkersPerLocality: p.Workers,
		Parcelport:         ppName,
		Fabric:             p.Fabric,
		LCIDevices:         p.LCIDevices,
		Aggregation:        p.Agg,
		AggFlushBytes:      p.AggSize,
		AggFlushDelay:      p.AggDelay,
		InlineBudget:       inlineBudget,
	})
	if err != nil {
		return MsgRateResult{}, err
	}
	defer rt.Shutdown()

	var received atomic.Int64
	var doneAt atomic.Int64 // nanoseconds since start, set by the receiver's ack
	start := time.Now()

	// Both actions are atomic-counter bumps — the canonical inline-safe
	// shape, and exactly the per-message cost the inline lane targets.
	ackID := rt.MustRegisterInlineAction("mr_ack", func(loc *core.Locality, args [][]byte) [][]byte {
		doneAt.Store(int64(time.Since(start)))
		return nil
	})
	sinkID := rt.MustRegisterInlineAction("mr_sink", func(loc *core.Locality, args [][]byte) [][]byte {
		if received.Add(1) == int64(total) {
			// All messages arrived: one short message back to the sender.
			_ = loc.ApplyID(0, ackID, nil)
		}
		return nil
	})
	if err := rt.Start(); err != nil {
		return MsgRateResult{}, err
	}

	sender := rt.Locality(0)
	payload := make([]byte, p.Size)
	for i := range payload {
		payload[i] = byte(i)
	}
	args := [][]byte{payload}

	var injected atomic.Int64
	var lastInjectAt atomic.Int64

	// The sender creates tasks at the attempted rate; each task injects one
	// batch. Task pacing happens on this driver goroutine, like the
	// benchmark driver thread in the paper's HPX harness.
	start = time.Now()
	interval := time.Duration(0)
	if p.Rate > 0 {
		interval = time.Duration(float64(p.Batch) / p.Rate * float64(time.Second))
	}
	for tIdx := 0; tIdx < tasks; tIdx++ {
		if interval > 0 {
			target := start.Add(time.Duration(tIdx) * interval)
			for time.Now().Before(target) {
				runtime.Gosched()
			}
		}
		sender.Spawn(func() {
			for b := 0; b < p.Batch; b++ {
				_ = sender.ApplyID(1, sinkID, args)
			}
			if injected.Add(int64(p.Batch)) == int64(total) {
				lastInjectAt.Store(int64(time.Since(start)))
			}
		})
	}

	// Wait for the receiver's ack.
	deadline := time.Now().Add(p.Timeout)
	for doneAt.Load() == 0 {
		if time.Now().After(deadline) {
			return MsgRateResult{}, fmt.Errorf("bench: message-rate run timed out (%d/%d received)", received.Load(), total)
		}
		runtime.Gosched()
	}

	res := MsgRateResult{AttemptedRate: p.Rate}
	if p.Inspect != nil {
		p.Inspect(rt)
	}
	injNs := lastInjectAt.Load()
	commNs := doneAt.Load()
	if injNs > 0 {
		res.AchievedInj = float64(total) / (float64(injNs) / 1e9)
	}
	if commNs > 0 {
		res.MsgRate = float64(total) / (float64(commNs) / 1e9)
	}
	return res, nil
}
