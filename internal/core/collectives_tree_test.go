package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// concatFold is deliberately non-commutative: fold order mistakes change the
// result bytes, so byte comparison pins the canonical ascending-rank order.
func concatFold(acc, partial [][]byte) [][]byte {
	out := make([]byte, 0, len(acc[0])+len(partial[0]))
	out = append(out, acc[0]...)
	out = append(out, partial[0]...)
	return [][]byte{out}
}

// label formats one locality's reduce partial.
func label(id int) string { return fmt.Sprintf("L%03d;", id) }

// wantConcat is the canonical reduce result: the root's partial first, then
// ascending root-relative rank order.
func wantConcat(root, n int) string {
	var b bytes.Buffer
	for k := 0; k < n; k++ {
		b.WriteString(label((root + k) % n))
	}
	return b.String()
}

// treeTestRuntime builds a runtime with the label/mark actions used by the
// tree-vs-flat tests. hits[l] counts how often locality l ran "mark".
func treeTestRuntime(t *testing.T, localities, workers int) (*Runtime, []atomic.Int64) {
	t.Helper()
	rt, err := NewRuntime(Config{
		Localities:         localities,
		WorkersPerLocality: workers,
		Parcelport:         "lci",
		IdleSleep:          100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]atomic.Int64, localities)
	rt.MustRegisterAction("mark", func(loc *Locality, args [][]byte) [][]byte {
		hits[loc.ID()].Add(1)
		return nil
	})
	rt.MustRegisterAction("label", func(loc *Locality, args [][]byte) [][]byte {
		return [][]byte{[]byte(label(loc.ID()))}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, hits
}

// TestReduceSeedsFromRootNonCommutative is the regression test for the
// root-seeding bug: the old implementation seeded the fold with locality 0's
// partial regardless of root, which silently reordered results for
// non-commutative folds whenever root != 0. Reduce must seed from the root
// and fold in ascending root-relative rank order.
func TestReduceSeedsFromRootNonCommutative(t *testing.T) {
	const n = 5
	rt, _ := treeTestRuntime(t, n, 2)
	for _, root := range []int{1, 3, n - 1} {
		want := wantConcat(root, n)
		got, err := rt.Reduce(root, 30*time.Second, "label", concatFold)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if string(got[0]) != want {
			t.Errorf("Reduce(root=%d) = %q, want %q (fold not seeded from root)", root, got[0], want)
		}
	}
}

// TestTreeCollectivesMatchFlatEveryRoot is the property test: for every
// cluster size and every root, each tree collective must give what a flat
// O(N) fan-out from the root gives, written here as closed forms. Broadcast
// runs mark exactly once per locality; Reduce returns wantConcat(root, n),
// the root's partial first and then ascending root-relative rank; Gather
// returns out[i] == [label(i)]. The fold is non-commutative so ordering
// bugs cannot hide.
func TestTreeCollectivesMatchFlatEveryRoot(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 64, 256}
	if testing.Short() || raceEnabled {
		// The 64/256-locality runs dominate the suite (and are ~10x slower
		// yet again under the race detector); the small sizes still cover
		// every tree shape transition.
		sizes = []int{1, 2, 3, 5, 8}
	}
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			workers := 2
			if n >= 64 {
				workers = 1
			}
			rt, hits := treeTestRuntime(t, n, workers)
			timeout := 60 * time.Second
			wantGather := make([][][]byte, n)
			for i := range wantGather {
				wantGather[i] = [][]byte{[]byte(label(i))}
			}

			for root := 0; root < n; root++ {
				for i := range hits {
					hits[i].Store(0)
				}
				if err := rt.Broadcast(root, timeout, "mark"); err != nil {
					t.Fatalf("broadcast root %d: %v", root, err)
				}
				for i := range hits {
					if c := hits[i].Load(); c != 1 {
						t.Fatalf("n=%d root=%d: broadcast ran mark %d times on locality %d, want 1", n, root, c, i)
					}
				}

				red, err := rt.Reduce(root, timeout, "label", concatFold)
				if err != nil {
					t.Fatalf("reduce root %d: %v", root, err)
				}
				if want := wantConcat(root, n); len(red) != 1 || string(red[0]) != want {
					t.Fatalf("reduce root %d = %q, want %q", root, red, want)
				}

				gat, err := rt.Gather(root, timeout, "label")
				if err != nil {
					t.Fatalf("gather root %d: %v", root, err)
				}
				if !reflect.DeepEqual(gat, wantGather) {
					t.Fatalf("gather root %d = %q, want %q", root, gat, wantGather)
				}
			}
		})
	}
}

// TestAllToAllExchange: every locality sends a distinct block to every other
// locality; every consume sees exactly the matrix row addressed to it.
func TestAllToAllExchange(t *testing.T) {
	const n = 5
	rt, err := NewRuntime(Config{Localities: n, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[int][]string)
	rt.MustRegisterAction("a2a_produce", func(loc *Locality, args [][]byte) [][]byte {
		blocks := make([][]byte, n)
		for d := 0; d < n; d++ {
			blocks[d] = []byte(fmt.Sprintf("from%d-to%d-%s", loc.ID(), d, args[0]))
		}
		return blocks
	})
	rt.MustRegisterAction("a2a_consume", func(loc *Locality, args [][]byte) [][]byte {
		row := make([]string, len(args))
		for s, b := range args {
			row[s] = string(b)
		}
		mu.Lock()
		got[loc.ID()] = row
		mu.Unlock()
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	if err := rt.AllToAll(30*time.Second, "a2a_produce", "a2a_consume", []byte("tag7")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("consume ran on %d localities, want %d", len(got), n)
	}
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			want := fmt.Sprintf("from%d-to%d-tag7", s, d)
			if got[d][s] != want {
				t.Fatalf("locality %d received %q from %d, want %q", d, got[d][s], s, want)
			}
		}
	}
}

// TestAllToAllValidation: produce actions returning the wrong block count
// must fail the collective, not wedge it.
func TestAllToAllValidation(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 3, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("bad_produce", func(loc *Locality, args [][]byte) [][]byte {
		return [][]byte{[]byte("only-one")}
	})
	rt.MustRegisterAction("noop_consume", func(loc *Locality, args [][]byte) [][]byte { return nil })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	if err := rt.AllToAll(10*time.Second, "nope", "noop_consume"); err == nil {
		t.Fatal("unknown produce action should fail")
	}
	if err := rt.AllToAll(10*time.Second, "bad_produce", "nope"); err == nil {
		t.Fatal("unknown consume action should fail")
	}
	if err := rt.AllToAll(30*time.Second, "bad_produce", "noop_consume"); err == nil {
		t.Fatal("wrong block count should fail the collective")
	}
}

// TestTreeBroadcastDeadLink: a tree broadcast crossing a partitioned link
// must surface an error within its deadline instead of hanging; afterwards
// a Call to the cut-off peer fails with ErrPeerUnreachable, and the peer
// whose links are intact stays healthy.
func TestTreeBroadcastDeadLink(t *testing.T) {
	rt, err := NewRuntime(Config{
		Localities:         3,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		Fabric:             fabric.Config{LatencyNs: 200, GbitsPerSec: 100, Reliability: true},
		DeliveryTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("mark", func(loc *Locality, args [][]byte) [][]byte { return nil })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	if err := rt.Broadcast(0, 30*time.Second, "mark"); err != nil {
		t.Fatalf("healthy broadcast: %v", err)
	}
	rt.Network().SetLinkDown(0, 2)
	rt.Network().SetLinkDown(2, 0)
	start := time.Now()
	err = rt.Broadcast(0, 10*time.Second, "mark")
	if err == nil {
		t.Fatal("broadcast across a dead link should fail")
	}
	if took := time.Since(start); took > 8*time.Second {
		t.Fatalf("broadcast took %v to surface the dead link: %v", took, err)
	}
	_, err = rt.Locality(0).Call(2, "mark").GetTimeout(10 * time.Second)
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("call to dead peer: err = %v, want ErrPeerUnreachable", err)
	}
	if h := rt.Network().PeerHealth(0, 1); h != fabric.HealthHealthy {
		t.Fatalf("unrelated peer health = %v", h)
	}
}

// TestChaosTreeCollectives drives the tree collectives over a lossy,
// duplicating, corrupting interconnect (with aggregation on, so tree hops
// ride bundles) and verifies exactly-once semantics: every broadcast runs
// its action exactly once per locality, every reduce returns the exact
// canonical bytes and every gather one label per locality, with the ARQ
// absorbing the faults.
func TestChaosTreeCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const n = 8
	rt, err := NewRuntime(Config{
		Localities:         n,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		Aggregation:        true,
		Fabric:             chaosFabric(0.02, 42),
		AggFlushBytes:      512,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]atomic.Int64, n)
	rt.MustRegisterAction("mark", func(loc *Locality, args [][]byte) [][]byte {
		hits[loc.ID()].Add(1)
		return nil
	})
	rt.MustRegisterAction("label", func(loc *Locality, args [][]byte) [][]byte {
		return [][]byte{[]byte(label(loc.ID()))}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	const rounds = 5
	for r := 0; r < rounds; r++ {
		broot := r % n
		if err := rt.Broadcast(broot, time.Minute, "mark"); err != nil {
			t.Fatalf("round %d broadcast: %v", r, err)
		}
		rroot := (r*3 + 1) % n
		res, err := rt.Reduce(rroot, time.Minute, "label", concatFold)
		if err != nil {
			t.Fatalf("round %d reduce: %v", r, err)
		}
		if want := wantConcat(rroot, n); string(res[0]) != want {
			t.Fatalf("round %d reduce = %q, want %q", r, res[0], want)
		}
		groot := (r*5 + 2) % n
		gat, err := rt.Gather(groot, time.Minute, "label")
		if err != nil {
			t.Fatalf("round %d gather: %v", r, err)
		}
		for i, res := range gat {
			if len(res) != 1 || string(res[0]) != label(i) {
				t.Fatalf("round %d gather[%d] = %q, want [%q]", r, i, res, label(i))
			}
		}
	}
	for i := range hits {
		if c := hits[i].Load(); c != rounds {
			t.Fatalf("locality %d ran mark %d times, want exactly %d", i, c, rounds)
		}
	}
	st := rt.Network().Device(0).Stats()
	if st.Retransmits == 0 {
		t.Fatalf("no retransmissions under 2%% loss: ARQ untested (%+v)", st)
	}
	if st.LinksDowned != 0 {
		t.Fatalf("link falsely declared down during chaos run: %+v", st)
	}
}

// TestCollBoxSweep: an inbox abandoned past its deadline (plus grace) is
// reaped by the rate-gated sweep, and its waiters fail instead of hanging.
func TestCollBoxSweep(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 1, WorkersPerLocality: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	loc := rt.Locality(0)
	past := monoNs() - int64(10*time.Second)
	loc.collbox(99, past).put(1, [][]byte{[]byte("stale")})
	loc.collMu.Lock()
	if loc.collBoxes[99] == nil {
		loc.collMu.Unlock()
		t.Fatal("box not created")
	}
	loc.collMu.Unlock()

	// Force the sweep gate open and trigger a pass via another collbox call.
	loc.collSweepNs.Store(0)
	loc.collbox(100, monoNs()+int64(time.Minute))
	loc.collMu.Lock()
	_, staleAlive := loc.collBoxes[99]
	_, freshAlive := loc.collBoxes[100]
	loc.collMu.Unlock()
	if staleAlive {
		t.Fatal("expired collective inbox survived the sweep")
	}
	if !freshAlive {
		t.Fatal("live collective inbox was swept")
	}
	loc.dropCollbox(100)
}
