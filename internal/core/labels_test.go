package core

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

// labelProbe returns the pprof label line of the calling goroutine ("" for
// none), found by its own frame in a debug=1 goroutine profile.
func labelProbe() string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "core.labelProbe") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if strings.HasPrefix(line, "# labels:") {
				return line
			}
		}
		return ""
	}
	return "probe frame not found"
}

// TestInlineDeliveryLabels: with profiling labels on, an inline batch runs
// under lane=inline-deliver, and afterwards the draining goroutine carries
// its locality's drain lane (the progress thread's, in lci pin mode) instead
// of no labels at all.
func TestInlineDeliveryLabels(t *testing.T) {
	EnableProfilingLabels(true)
	defer EnableProfilingLabels(false)
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var inside string
	act := rt.MustRegisterInlineAction("label_probe", func(*Locality, [][]byte) [][]byte {
		inside = labelProbe()
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	m := benchBundle(1, 64, act)
	m.Owner = &stubOwner{}
	l.deliver(m)
	if !strings.Contains(inside, `"lane":"inline-deliver"`) || !strings.Contains(inside, `"sched":"locality-0"`) {
		t.Fatalf("inline action labels %q, want lane=inline-deliver sched=locality-0", inside)
	}
	if after := labelProbe(); !strings.Contains(after, `"lane":"progress"`) || !strings.Contains(after, `"sched":"locality-0"`) {
		t.Fatalf("draining goroutine labels after the batch %q, want lane=progress sched=locality-0", after)
	}
}
