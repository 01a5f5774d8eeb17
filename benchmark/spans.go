package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"hpxgo/internal/stats"
)

// epoch anchors every timestamp of a run; nowNs is the monotonic clock the
// drivers, the credit actions and the spans share.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// spanName indexes spanNames.
type spanName uint8

const (
	spanOp spanName = iota
	spanCallIssue
	spanCallWait
	spanApply
	spanGetHit
	spanGetMiss
	spanPut
	spanStep
	numSpanNames
)

// spanNames are the Chrome-trace names; the ones a per-layer metric reports
// the median of are spelled like that metric, without the _ns suffix.
var spanNames = [numSpanNames]string{
	"op", "core.call_issue", "core.call_wait", "core.apply",
	"serve.get_hit", "serve.get_miss", "serve.put", "octotiger.step",
}

// span is one recorded interval. Spans of one operation share op; parent is
// the id of the span that caused this one (0 = none).
type span struct {
	name       spanName
	start, end int64
	id, parent uint32
	op         uint32
}

// tracer keeps spans in a preallocated ring; nothing is formatted or written
// until the run is over. It has one writer at a time: the tracing driver
// during a run, the layer walk after it.
type tracer struct {
	ring    []span
	next    uint32 // ids are 1-based and increase; id%len(ring) is the slot
	roots   []span // segment and walk spans: few, never overwritten
	labels  map[uint32]string
	segment uint32 // id of the current segment span, parent of its operations
}

func newTracer(capacity int) *tracer {
	return &tracer{ring: make([]span, capacity), roots: make([]span, 0, 256), labels: map[uint32]string{}}
}

// add records a finished span and returns its id.
func (t *tracer) add(name spanName, start, end int64, parent, op uint32) uint32 {
	t.next++
	t.ring[t.next%uint32(len(t.ring))] = span{name: name, start: start, end: end, id: t.next, parent: parent, op: op}
	return t.next
}

// addRoot records a labelled span outside the ring: a segment or a step of
// the layer walk. There are few of them, and a segment must outlive the wrap
// that overwrites its first operations.
func (t *tracer) addRoot(label string, start, end int64, parent uint32) uint32 {
	t.next++
	t.roots = append(t.roots, span{start: start, end: end, id: t.next, parent: parent})
	t.labels[t.next] = label
	return t.next
}

// endRoot sets the end of a span recorded with addRoot.
func (t *tracer) endRoot(id uint32, end int64) {
	for i := len(t.roots) - 1; i >= 0; i-- {
		if t.roots[i].id == id {
			t.roots[i].end = end
			return
		}
	}
}

// spans returns everything still held, oldest first, without spans whose
// parent the ring has already overwritten.
func (t *tracer) spans() []span {
	all := append([]span(nil), t.roots...)
	for _, s := range t.ring {
		if s.id != 0 {
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	have := make(map[uint32]bool, len(all))
	out := all[:0]
	for _, s := range all {
		if s.parent == 0 || have[s.parent] {
			have[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// medians returns the median duration in ns of every span name recorded.
func (t *tracer) medians() map[spanName]float64 {
	by := map[spanName][]float64{}
	for _, s := range t.ring {
		if s.id != 0 {
			by[s.name] = append(by[s.name], float64(s.end-s.start))
		}
	}
	out := map[spanName]float64{}
	for n, d := range by {
		out[n] = stats.Median(d)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" events; id,
// parent and op travel in args).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans() {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		name, labelled := t.labels[s.id]
		if !labelled {
			name = spanNames[s.name]
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
