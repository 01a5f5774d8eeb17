package core

import (
	"bytes"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// TestAggBlockingPathWaitsForNoTimer: a closed-loop caller appends one frame
// and blocks on its future, so nothing will ever join that bundle; it must
// leave when the producer goes quiet, not when the age cap fires. With the
// cap at 2 s, 50 sequential echoes (100 bundles) finish in well under one
// cap period on every aggregating transport — after 10 ms of silence too,
// the lone-message case. A coarse bound, not a latency.
func TestAggBlockingPathWaitsForNoTimer(t *testing.T) {
	for _, tc := range []struct {
		name, pp string
	}{
		{"lci_agg", "lci"},
		{"lci_psr_cq_mt_i", "lci_psr_cq_mt_i"},
		{"mpi_i_agg", "mpi_i"},
	} {
		for _, idle := range []time.Duration{0, 10 * time.Millisecond} {
			tc, idle := tc, idle
			t.Run(tc.name+"/idle="+idle.String(), func(t *testing.T) {
				rt, err := NewRuntime(Config{
					Localities:         2,
					WorkersPerLocality: 2,
					Parcelport:         tc.pp,
					Aggregation:        true,
					AggFlushDelay:      2 * time.Second,
					Fabric:             fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				echo := rt.MustRegisterAction("echo", func(_ *Locality, args [][]byte) [][]byte { return args })
				if err := rt.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rt.Shutdown)
				time.Sleep(idle)
				start := time.Now()
				for i := 0; i < 50; i++ {
					arg := []byte{byte(i)}
					res, err := rt.Locality(0).CallID(1, echo, [][]byte{arg}).GetTimeout(20 * time.Second)
					if err != nil || len(res) != 1 || !bytes.Equal(res[0], arg) {
						t.Fatalf("echo %d: %q, %v", i, res, err)
					}
					if took := time.Since(start); took > time.Second {
						t.Fatalf("%d echoes took %v: a leg waited out the 2 s age cap", i+1, took)
					}
				}
				for i := 0; i < 2; i++ {
					if as := rt.Locality(i).agg.Stats(); as.AgeFlushes != 0 || as.QuietFlushes == 0 {
						t.Fatalf("locality %d: %d age / %d quiet flushes, want every bundle released by quiet", i, as.AgeFlushes, as.QuietFlushes)
					}
				}
			})
		}
	}
}
