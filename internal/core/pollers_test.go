package core

import (
	"bytes"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestPinnedProgressSolePoller: in lci pin mode the dedicated progress thread
// runs the locality's whole background pass, so a thousand round trips
// complete with no worker poll loop at all; in mt mode the workers are the
// pollers.
func TestPinnedProgressSolePoller(t *testing.T) {
	for _, tc := range []struct {
		pp      string
		calls   int
		workers bool
	}{
		{pp: "lci_i", calls: 1000, workers: false},
		{pp: "lci_psr_cq_mt_i", calls: 100, workers: true},
	} {
		t.Run(tc.pp, func(t *testing.T) {
			rt := newRuntime(t, tc.pp, 2)
			echo, _ := rt.ActionID("echo")
			payload := []byte("8 bytes!")
			for i := 0; i < tc.calls; i++ {
				res, err := rt.Locality(0).CallID(1, echo, [][]byte{payload}).GetTimeout(20 * time.Second)
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if len(res) != 1 || !bytes.Equal(res[0], payload) {
					t.Fatalf("call %d: bad echo %q", i, res)
				}
			}
			want := 0
			if tc.workers {
				want = 2
			}
			for i := 0; i < rt.Localities(); i++ {
				if got := rt.Locality(i).sched.PollLoops(); got != want {
					t.Fatalf("locality %d: %d worker poll loops, want %d", i, got, want)
				}
			}
		})
	}
}

// TestWatchdogTakesOverStalledPass: an inline-hinted action that blocks stalls
// the pass of the progress thread that runs it, the locality's only poller in
// pin mode. The watchdog notices the pass outlive a tick and a helper runs
// the pass in its place. A second run of the action, still unsampled and so
// still inline, blocks that helper in turn; another helper takes over, and
// bystander parcels to that locality still complete.
func TestWatchdogTakesOverStalledPass(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci_i"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var light atomic.Int64
	blocker := rt.MustRegisterInlineAction("watchdog_blocker", func(*Locality, [][]byte) [][]byte {
		started <- struct{}{}
		<-gate
		return nil
	})
	bystander := rt.MustRegisterInlineAction("watchdog_bystander", func(*Locality, [][]byte) [][]byte {
		light.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	src, dst := rt.Locality(0), rt.Locality(1)
	defer close(gate)
	for i := 0; i < 2; i++ {
		if err := src.ApplyID(1, blocker, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-started:
		case <-time.After(20 * time.Second):
			t.Fatalf("blocking run %d never started", i)
		}
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := src.ApplyID(1, bystander, [][]byte{{1}}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); light.Load() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d bystander parcels completed beside a blocked progress pass", light.Load(), n)
		}
	}
	if got := dst.sched.Takeovers(); got < 2 {
		t.Fatalf("bystanders completed beside two blocked runs after %d watchdog takeovers, want >= 2", got)
	}
	m := regexp.MustCompile(`locality 1:\n(?:.*\n)*?  pollers: 0 worker poll loops, (\d+) watchdog takeovers\n`).FindStringSubmatch(rt.StatsText())
	if m == nil {
		t.Fatalf("StatsText does not show locality 1's takeovers:\n%s", rt.StatsText())
	}
	if k, _ := strconv.Atoi(m[1]); k < 2 {
		t.Fatalf("StatsText shows %d takeovers for the stalled locality, want >= 2:\n%s", k, rt.StatsText())
	}
}

// TestShutdownJoinsPollers: after Shutdown no poller, progress thread,
// watchdog or parked task runner of any transport is left running — the
// goroutine count returns to what it was before NewRuntime.
func TestShutdownJoinsPollers(t *testing.T) {
	for _, pp := range []string{"lci_i", "lci_psr_cq_mt_i", "mpi_i"} {
		t.Run(pp, func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: pp})
			if err != nil {
				t.Fatal(err)
			}
			echo := rt.MustRegisterAction("echo", func(_ *Locality, args [][]byte) [][]byte { return args })
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if _, err := rt.Locality(i%2).CallID(1-i%2, echo, [][]byte{{byte(i)}}).GetTimeout(20 * time.Second); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			rt.Shutdown()
			// Shutdown joins synchronously; the retry only absorbs the Go
			// scheduler reaping exited goroutines a moment later.
			for try := 0; runtime.NumGoroutine() > before; try++ {
				if try == 1000 {
					t.Fatalf("goroutines after Shutdown = %d, before NewRuntime = %d", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
