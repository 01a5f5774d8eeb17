package core

import (
	"encoding/binary"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"). Tests only: it tells "ran on the caller" from
// "ran on a spawned task".
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// newDirectRuntime builds a started 2-locality runtime with one hinted and
// one unhinted action, each answering with the id of the goroutine it ran on.
func newDirectRuntime(t *testing.T, inlineBudget int) (rt *Runtime, hinted, plain uint32) {
	t.Helper()
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", InlineBudget: inlineBudget})
	if err != nil {
		t.Fatal(err)
	}
	whereAmI := func(*Locality, [][]byte) [][]byte {
		return [][]byte{binary.LittleEndian.AppendUint64(nil, goid())}
	}
	hinted = rt.MustRegisterInlineAction("direct_hinted", whereAmI)
	plain = rt.MustRegisterAction("direct_plain", whereAmI)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, hinted, plain
}

// callSelf makes a local CallID of act from a fresh goroutine and reports
// whether the future was already set when CallID returned, whether the
// action ran on that goroutine, and how far the scheduler's inline counter
// moved.
func callSelf(t *testing.T, l *Locality, act uint32) (readyAtReturn, onCaller bool, inlineDelta int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		before := l.sched.InlineExecuted()
		caller := goid()
		f := l.CallID(l.ID(), act, nil)
		readyAtReturn = f.Ready()
		res, err := f.GetTimeout(10 * time.Second)
		inlineDelta = l.sched.InlineExecuted() - before
		if err != nil || len(res) != 1 || len(res[0]) != 8 {
			t.Errorf("local call: %v, %d blobs", err, len(res))
			return
		}
		onCaller = binary.LittleEndian.Uint64(res[0]) == caller
	}()
	<-done
	return
}

// TestDirectLocalCall: a local Call of an inline-hinted action is a direct
// action — it runs on the caller, through the scheduler's inline accounting,
// and returns an already-set future. An unhinted action, or any action with
// the inline lane off, is still spawned.
func TestDirectLocalCall(t *testing.T) {
	for _, tc := range []struct {
		name         string
		inlineBudget int
		hinted       bool
		direct       bool
	}{
		{"hinted", 0, true, true},
		{"unhinted", 0, false, false},
		{"hinted-lane-off", -1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, hinted, plain := newDirectRuntime(t, tc.inlineBudget)
			act := plain
			if tc.hinted {
				act = hinted
			}
			l := rt.Locality(1)
			ready, onCaller, inl := callSelf(t, l, act)
			if tc.direct {
				if !ready || !onCaller || inl != 1 {
					t.Fatalf("direct call: ready at return %v, ran on caller %v, inline runs %d; want true, true, 1", ready, onCaller, inl)
				}
			} else if onCaller || inl != 0 {
				t.Fatalf("spawned call: ran on caller %v, inline runs %d; want false, 0", onCaller, inl)
			}
			if n := l.ParcelLayer().Stats().ParcelsSent; n != 0 {
				t.Fatalf("local call sent %d parcels", n)
			}
		})
	}
}

// TestDirectLocalCallRecursion: a hinted action that calls itself on its own
// locality and waits for the answer completes — each level runs directly on
// the stack of the one above, whose future is set before it waits.
func TestDirectLocalCallRecursion(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var self uint32
	self = rt.MustRegisterInlineAction("direct_recurse", func(loc *Locality, args [][]byte) [][]byte {
		depth := binary.LittleEndian.Uint32(args[0])
		if depth == 0 {
			return [][]byte{binary.LittleEndian.AppendUint32(nil, 0)}
		}
		res, err := loc.CallID(loc.ID(), self, [][]byte{binary.LittleEndian.AppendUint32(nil, depth-1)}).GetTimeout(10 * time.Second)
		if err != nil {
			return nil
		}
		return [][]byte{binary.LittleEndian.AppendUint32(nil, binary.LittleEndian.Uint32(res[0])+1)}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	const depth = 64
	for _, from := range []int{0, 1} {
		// From locality 0 the outermost level travels by parcel and runs on
		// locality 1's inline lane; the rest are direct either way.
		res, err := rt.Locality(from).CallID(1, self, [][]byte{binary.LittleEndian.AppendUint32(nil, depth)}).GetTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		if len(res) != 1 || binary.LittleEndian.Uint32(res[0]) != depth {
			t.Fatalf("from %d: recursion answered %v, want depth %d", from, res, depth)
		}
	}
}
