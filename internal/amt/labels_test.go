package amt

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// goroutineLabels returns the pprof label line ("# labels: {...}", or "" for
// none) of the goroutine whose stack contains fn, from a debug=1 goroutine
// profile.
func goroutineLabels(t *testing.T, fn string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, fn) {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if strings.HasPrefix(line, "# labels:") {
				return line
			}
		}
		return ""
	}
	t.Fatalf("no goroutine runs %s", fn)
	return ""
}

// labelledTaskBody parks until release closes; its name marks the runner's
// stack in the goroutine profile.
func labelledTaskBody(started chan<- struct{}, release <-chan struct{}) {
	started <- struct{}{}
	<-release
}

// TestRunnerLabelsOwnLane: with profiling labels on, a task runner started
// by a labelled goroutine carries lane=task and its scheduler's name, not
// the spawner's labels.
func TestRunnerLabelsOwnLane(t *testing.T) {
	EnableProfilingLabels(true)
	defer EnableProfilingLabels(false)
	s := New(Config{Workers: 1, Name: "labels"})
	defer s.Stop()
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	pprof.Do(context.Background(), pprof.Labels("lane", "spawner"), func(context.Context) {
		s.Spawn(func() { labelledTaskBody(started, release) })
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("task did not start")
	}
	got := goroutineLabels(t, "labelledTaskBody")
	if !strings.Contains(got, `"lane":"task"`) || !strings.Contains(got, `"sched":"labels"`) {
		t.Fatalf("runner labels %q, want lane=task sched=labels", got)
	}
}

// TestDedicatedRelabelsAfterPass: a pass that relabels its goroutine (as
// core's inline lane does) does not leave the dedicated thread unlabelled.
func TestDedicatedRelabelsAfterPass(t *testing.T) {
	EnableProfilingLabels(true)
	defer EnableProfilingLabels(false)
	s := New(Config{Workers: 1, Name: "relabel"})
	defer s.Stop()
	passes := make(chan struct{}, 1)
	stop := s.StartDedicated("relabel-progress", false, func() {
		pprof.SetGoroutineLabels(context.Background())
		select {
		case passes <- struct{}{}:
		default:
		}
	})
	defer stop()
	<-passes
	// Labels are read while the thread is between passes or inside one;
	// retry until a read finds it outside the relabelling pass.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := goroutineLabels(t, "StartDedicated")
		if strings.Contains(got, `"lane":"progress"`) && strings.Contains(got, `"thread":"relabel-progress"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dedicated thread labels %q, want lane=progress thread=relabel-progress", got)
		}
		time.Sleep(time.Millisecond)
	}
}
