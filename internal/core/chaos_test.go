package core

import (
	"encoding/binary"
	"errors"
	"regexp"
	"sync"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// chaosFabric is a small lossy interconnect: every fault class active, with
// the retransmission timers tuned for a 1-CPU CI host (short RTO, a retry
// budget generous enough that even 5% loss cannot falsely down a link).
func chaosFabric(drop float64, seed int64) fabric.Config {
	return fabric.Config{
		LatencyNs:   200,
		GbitsPerSec: 100,
		Rails:       2,
		Faults: fabric.FaultConfig{
			DropProb:    drop,
			DupProb:     0.01,
			CorruptProb: 0.01,
			SpikeProb:   0.005,
			SpikeNs:     20_000,
			Seed:        seed,
		},
		RetransmitTimeoutNs: 200_000,
		AckDelayNs:          50_000,
		RetryBudget:         50,
	}
}

// TestChaosExactlyOnceDelivery drives both fabric-backed parcelports over a
// lossy, duplicating, corrupting interconnect and verifies the end-to-end
// guarantee: every Apply runs exactly once and every Call returns exactly
// its arguments, with the ARQ (not luck) absorbing the faults.
func TestChaosExactlyOnceDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	for _, tc := range []struct {
		pp   string
		agg  bool
		drop float64
	}{
		{"lci", false, 0.01},
		{"lci", false, 0.05},
		{"mpi_i", false, 0.01},
		{"mpi_i", false, 0.05},
		// Aggregated variants: sub-parcels ride bundled fabric transfers, and
		// the exactly-once guarantee must hold per sub-parcel, not per bundle.
		{"lci", true, 0.05},
		{"mpi_i", true, 0.05},
	} {
		tc := tc
		name := tc.pp
		if tc.agg {
			name += "_agg"
		}
		t.Run(name+"/"+pct(tc.drop), func(t *testing.T) {
			rt, err := NewRuntime(Config{
				Localities:         2,
				WorkersPerLocality: 2,
				Parcelport:         tc.pp,
				Aggregation:        tc.agg,
				Fabric:             chaosFabric(tc.drop, int64(len(name))+int64(tc.drop*100)),
				// Keep bundles small (eight 105 B frames of the 64 B sink
				// parcels) so the run still produces enough distinct fabric
				// transfers to provoke retransmissions.
				AggFlushBytes: 768,
			})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			counts := make(map[uint32]int)
			rt.MustRegisterAction("chaos_sink", func(loc *Locality, args [][]byte) [][]byte {
				if len(args) == 1 && len(args[0]) >= 4 {
					id := binary.LittleEndian.Uint32(args[0])
					mu.Lock()
					counts[id]++
					mu.Unlock()
				}
				return nil
			})
			rt.MustRegisterAction("chaos_echo", func(loc *Locality, args [][]byte) [][]byte {
				return args
			})
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()

			const total = 400
			loc0 := rt.Locality(0)
			for i := 0; i < total; i++ {
				buf := make([]byte, 64)
				binary.LittleEndian.PutUint32(buf, uint32(i))
				if err := loc0.Apply(1, "chaos_sink", buf); err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				if i%40 == 0 {
					// Interleave request/response traffic so acks piggyback.
					f := loc0.Call(1, "chaos_echo", []byte{byte(i)})
					res, err := f.GetTimeout(time.Minute)
					if err != nil {
						t.Fatalf("call %d: %v", i, err)
					}
					if len(res) != 1 || len(res[0]) != 1 || res[0][0] != byte(i) {
						t.Fatalf("call %d: echoed %v", i, res)
					}
				}
			}

			deadline := time.Now().Add(time.Minute)
			for {
				mu.Lock()
				n := len(counts)
				mu.Unlock()
				if n == total {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d applies delivered", n, total)
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			for id, c := range counts {
				if c != 1 {
					t.Fatalf("apply %d executed %d times, want exactly once", id, c)
				}
			}
			mu.Unlock()

			st := rt.Network().Device(0).Stats()
			if st.Retransmits == 0 {
				t.Fatalf("no retransmissions under %.0f%% loss: ARQ untested (%+v)", tc.drop*100, st)
			}
			if st.LinksDowned != 0 {
				t.Fatalf("link falsely declared down during chaos run: %+v", st)
			}
			t.Logf("%s at %s loss: %d retransmits, %d acks, %d dup-dropped, %d corrupt-dropped",
				name, pct(tc.drop), st.Retransmits, st.AcksSent,
				rt.Network().Device(1).Stats().DupDropped,
				rt.Network().Device(1).Stats().CorruptDropped)
		})
	}
}

func pct(p float64) string {
	if p >= 0.05 {
		return "5pct"
	}
	return "1pct"
}

// TestDeliveryTimeoutOnHealthyLink: a Call whose action never replies, over
// a link that stays healthy, fails with ErrPeerUnreachable once its
// DeliveryTimeout has passed — not before it, and not long after (the reaper
// runs at most once a millisecond, on the monotonic clock).
func TestDeliveryTimeoutOnHealthyLink(t *testing.T) {
	const timeout = 300 * time.Millisecond
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci", DeliveryTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	rt.MustRegisterAction("never_replies", func(*Locality, [][]byte) [][]byte {
		<-release
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	defer close(release) // before Shutdown: the blocked task must finish

	start := time.Now()
	f := rt.Locality(0).Call(1, "never_replies", []byte("x"))
	_, err = f.GetTimeout(30 * time.Second)
	waited := time.Since(start)
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("call to a silent action: err = %v, want ErrPeerUnreachable", err)
	}
	if waited < timeout {
		t.Fatalf("call failed after %v, before its %v delivery timeout", waited, timeout)
	}
	if waited > timeout+2*time.Second {
		t.Fatalf("call failed after %v, long past its %v delivery timeout", waited, timeout)
	}
	if h := rt.Network().PeerHealth(0, 1); h != fabric.HealthHealthy {
		t.Fatalf("peer health %v, want healthy", h)
	}
	if n := rt.Locality(0).PendingContinuations(); n != 0 {
		t.Fatalf("%d continuations left after the timeout", n)
	}
}

// TestDeliveryTimeoutSurfacesError: a black-hole link (100% drop, tiny retry
// budget) exhausts its budget, the fabric declares the peer down, and the
// pending Call future fails with ErrPeerUnreachable instead of hanging;
// subsequent Applies fail fast.
func TestDeliveryTimeoutSurfacesError(t *testing.T) {
	rt, err := NewRuntime(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		Fabric: fabric.Config{
			LatencyNs:           200,
			GbitsPerSec:         100,
			Faults:              fabric.FaultConfig{DropProb: 1, Seed: 3},
			RetransmitTimeoutNs: 100_000,
			AckDelayNs:          100_000,
			RetryBudget:         5,
		},
		DeliveryTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("never_runs", func(loc *Locality, args [][]byte) [][]byte { return args })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	f := rt.Locality(0).Call(1, "never_runs", []byte("x"))
	if _, err := f.GetTimeout(30 * time.Second); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("call over black-hole link: err = %v, want ErrPeerUnreachable", err)
	}
	// The reaper failed it, and StatsText counts it on locality 0's line.
	if !regexp.MustCompile(`locality 0:\n  parcels sent .*, reaped calls 1\n`).MatchString(rt.StatsText()) {
		t.Fatalf("StatsText does not count the reaped call:\n%s", rt.StatsText())
	}

	// By now the retry budget is long exhausted: the peer reads as down and
	// fire-and-forget sends fail fast instead of queueing into the void.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Network().PeerHealth(0, 1) != fabric.HealthDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never declared down: %v", rt.Network().PeerHealth(0, 1))
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.Locality(0).Apply(1, "never_runs", []byte("y")); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("apply to down peer: err = %v, want ErrPeerUnreachable", err)
	}
	if rt.Locality(0).PendingContinuations() != 0 {
		t.Fatalf("%d continuations leaked", rt.Locality(0).PendingContinuations())
	}
}
