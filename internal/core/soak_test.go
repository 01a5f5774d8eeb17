package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// TestSoakMixedTraffic hammers a 3-locality runtime with a randomized mix
// of Apply and Call across payload sizes straddling every protocol boundary
// (short, eager, zero-copy rendezvous) for a bounded wall-clock window per
// transport, verifying that nothing is lost, duplicated or corrupted.
func TestSoakMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	for _, pp := range []string{"lci", "mpi_i"} {
		pp := pp
		t.Run(pp, func(t *testing.T) {
			rt, err := NewRuntime(Config{
				Localities:         3,
				WorkersPerLocality: 2,
				Parcelport:         pp,
				Fabric:             fabric.Config{LatencyNs: 200, GbitsPerSec: 100, Rails: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			var applied atomic.Int64
			rt.MustRegisterAction("soak_sink", func(loc *Locality, args [][]byte) [][]byte {
				applied.Add(1)
				return nil
			})
			rt.MustRegisterAction("soak_echo", func(loc *Locality, args [][]byte) [][]byte {
				return args
			})
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()

			rng := rand.New(rand.NewSource(99))
			deadline := time.Now().Add(2 * time.Second)
			var sentApply, calls int64
			type pending struct {
				fut interface {
					GetTimeout(time.Duration) ([][]byte, error)
				}
				payload []byte
			}
			var outstanding []pending
			for time.Now().Before(deadline) {
				src := rng.Intn(3)
				dst := (src + 1 + rng.Intn(2)) % 3
				size := []int{1, 7, 100, 1024, 8192, 20000}[rng.Intn(6)]
				payload := make([]byte, size)
				payload[0] = byte(rng.Intn(256))
				if rng.Intn(2) == 0 {
					if err := rt.Locality(src).Apply(dst, "soak_sink", payload); err != nil {
						t.Fatal(err)
					}
					sentApply++
				} else {
					outstanding = append(outstanding, pending{
						fut:     rt.Locality(src).Call(dst, "soak_echo", payload),
						payload: payload,
					})
					calls++
				}
				// Bound the in-flight window so memory stays sane.
				if len(outstanding) >= 64 {
					for _, p := range outstanding {
						res, err := p.fut.GetTimeout(time.Minute)
						if err != nil {
							t.Fatalf("%s: call failed: %v", pp, err)
						}
						if len(res) != 1 || !bytes.Equal(res[0], p.payload) {
							t.Fatalf("%s: echo corrupted (%d bytes)", pp, len(p.payload))
						}
					}
					outstanding = outstanding[:0]
				}
			}
			for _, p := range outstanding {
				res, err := p.fut.GetTimeout(time.Minute)
				if err != nil {
					t.Fatalf("%s: tail call failed: %v", pp, err)
				}
				if !bytes.Equal(res[0], p.payload) {
					t.Fatalf("%s: tail echo corrupted", pp)
				}
			}
			waitUntil := time.Now().Add(time.Minute)
			for applied.Load() < sentApply && time.Now().Before(waitUntil) {
				time.Sleep(time.Millisecond)
			}
			if applied.Load() != sentApply {
				t.Fatalf("%s: %d of %d applies delivered", pp, applied.Load(), sentApply)
			}
			t.Logf("%s soak: %d applies + %d calls survived", pp, sentApply, calls)
		})
	}
}
