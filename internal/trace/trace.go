// Package trace provides a lightweight bounded event tracer: a
// fixed-capacity ring of timestamped events that is cheap enough to leave
// compiled in (a disabled tracer costs one atomic load per call site) and
// small enough to dump into a bug report. The runtime does not emit into
// it; the benchmark's layer walk times one event (trace.event_ns).
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded occurrence.
type Event struct {
	At    time.Duration // since tracer creation
	Cat   string        // category, e.g. "parcel", "action"
	Label string        // event name, e.g. "send"
	Arg   int64         // free-form argument (size, id, ...)
}

// Tracer records events into a bounded ring. All methods are safe for
// concurrent use.
type Tracer struct {
	start   time.Time
	enabled atomic.Bool

	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
}

// New creates a disabled tracer with the given ring capacity (default 4096).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{start: time.Now(), ring: make([]Event, 0, capacity)}
}

// Enable turns recording on or off.
func (t *Tracer) Enable(on bool) { t.enabled.Store(on) }

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Emit records an event (no-op while disabled).
func (t *Tracer) Emit(cat, label string, arg int64) {
	if !t.enabled.Load() {
		return
	}
	e := Event{At: time.Since(t.start), Cat: cat, Label: label, Arg: arg}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Total returns the number of events ever emitted (including overwritten).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dump returns the retained events in emission order. The order is
// reconstructed from the ring structure itself — `next` marks the oldest
// retained slot once the ring has wrapped — rather than by re-sorting on
// timestamps, which would shuffle same-timestamp events (the clock is much
// coarser than the emit rate) under a non-stable sort.
func (t *Tracer) Dump() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		// Not yet wrapped: the ring is already chronological.
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// String renders the retained events, one per line.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, e := range t.Dump() {
		fmt.Fprintf(&b, "%12.3fus %-10s %-16s %d\n", float64(e.At.Nanoseconds())/1e3, e.Cat, e.Label, e.Arg)
	}
	return b.String()
}
