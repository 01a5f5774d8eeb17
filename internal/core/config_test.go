package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// TestNewRuntimeRejectsBadConfig: negative knobs and a stripe wider than the
// fabric are configuration errors, not requests for the default. Zero still
// selects the default and a negative InlineBudget still means "lane off".
func TestNewRuntimeRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(*Config)
		wantErr string // "" = must be accepted
	}{
		{"zero values", func(c *Config) {}, ""},
		{"inline lane off", func(c *Config) { c.InlineBudget = -1 }, ""},
		{"stripe equals rails", func(c *Config) { c.LCI.StripeWidth = 2 }, ""},
		{"AggFlushBytes", func(c *Config) { c.AggFlushBytes = -1 }, "AggFlushBytes"},
		{"AggFlushDelay", func(c *Config) { c.AggFlushDelay = -time.Microsecond }, "AggFlushDelay"},
		{"AggMaxQueued", func(c *Config) { c.AggMaxQueued = -8 }, "AggMaxQueued"},
		{"ZeroCopyThreshold", func(c *Config) { c.ZeroCopyThreshold = -8192 }, "ZeroCopyThreshold"},
		{"DrainBatch", func(c *Config) { c.DrainBatch = -32 }, "DrainBatch"},
		{"stripe wider than rails", func(c *Config) { c.LCI.StripeWidth = 3 }, "StripeWidth"},
		{"stripe on default single rail", func(c *Config) { c.Fabric = fabric.Config{}; c.LCI.StripeWidth = 2 }, "StripeWidth"},
		{"leftover stripe under mpi", func(c *Config) { c.Parcelport = "mpi_i"; c.LCI.StripeWidth = 3 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Parcelport: "lci_i", Aggregation: true, Fabric: fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 2}}
			tc.mut(&cfg)
			rt, err := NewRuntime(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				if want := cfg.InlineBudget >= 0; (rt.Locality(0).inlineBudget > 0) != want {
					t.Fatalf("inline lane on = %v, want %v", !want, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}

// TestStripeWidthReachesChunkPlan: Config.LCI.StripeWidth decides how many
// rails a rendezvous transfer uses. The fabric serializes each rail at
// GbitsPerSec, so a 1 MiB argument confined to w of 4 slow rails cannot land
// before size/(w×bandwidth) whatever the host speed, while a stripe that lost
// its value on the way down falls back to all 4 rails and lands in a quarter
// of the one-rail time. Only lower bounds are asserted, so a slow host cannot
// fail the test; lci's TestChunkPlanStripe covers the device's half
// (chunkPlan returns exactly the configured width).
func TestStripeWidthReachesChunkPlan(t *testing.T) {
	const (
		size    = 1 << 20
		gbps    = 0.2
		oneRail = time.Duration(size * 8 / gbps) // ns: Gbit/s == bit/ns
	)
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			rt, err := NewRuntime(Config{
				Parcelport: "lci_i",
				Fabric:     fabric.Config{LatencyNs: 1000, GbitsPerSec: gbps, Rails: 4},
				LCI:        lci.Config{StripeWidth: width},
			})
			if err != nil {
				t.Fatal(err)
			}
			landed := make(chan struct{}, 1)
			sink := rt.MustRegisterAction("sink", func(*Locality, [][]byte) [][]byte {
				landed <- struct{}{}
				return nil
			})
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Shutdown)
			start := time.Now()
			if err := rt.Locality(0).ApplyID(1, sink, [][]byte{make([]byte, size)}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-landed:
			case <-time.After(30 * time.Second):
				t.Fatal("transfer did not land")
			}
			wire := oneRail / time.Duration(width)
			if got := time.Since(start); got < wire*95/100 {
				t.Fatalf("1 MiB on %d of 4 rails landed in %v, under the %v wire time: more rails were used", width, got, wire)
			}
		})
	}
}

// TestAggFlushBytesReachesBundle: Config.AggFlushBytes is the size at which
// the aggregator cuts a bundle: a size flush holds exactly
// ceil((FlushBytes-header)/frame) messages and every other bundle (a quiet
// flush when the sender was descheduled mid-stream, the tail) fewer.
func TestAggFlushBytesReachesBundle(t *testing.T) {
	const payload = 64
	frame := serialization.EncodedSizeInline(&serialization.Parcel{Args: [][]byte{make([]byte, payload)}}) + wire.FrameHeaderSize
	for _, flushBytes := range []int{512, 2048} {
		t.Run(fmt.Sprintf("FlushBytes=%d", flushBytes), func(t *testing.T) {
			perBundle := (flushBytes - wire.BundleHeaderSize + frame - 1) / frame
			bundles := 20
			total := bundles*perBundle + perBundle/2 // the tail leaves by quiet flush
			rt, err := NewRuntime(Config{
				Parcelport:    "lci_i",
				Aggregation:   true,
				AggFlushBytes: flushBytes,
				AggFlushDelay: time.Minute,
				Fabric:        fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			var received atomic.Int64
			sink := rt.MustRegisterInlineAction("sink", func(*Locality, [][]byte) [][]byte {
				received.Add(1)
				return nil
			})
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Shutdown)
			args := [][]byte{make([]byte, payload)}
			for i := 0; i < total; i++ {
				if err := rt.Locality(0).ApplyID(1, sink, args); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for received.Load() < int64(total) {
				if time.Now().After(deadline) {
					t.Fatalf("received %d/%d", received.Load(), total)
				}
				time.Sleep(time.Millisecond)
			}
			as := rt.Locality(0).pp.(*parcelport.Aggregator).Stats()
			size, other := int(as.SizeFlushes), int(as.Bundles-as.SizeFlushes)
			if as.BundledMessages != uint64(total) || size == 0 ||
				total < size*perBundle+other || total > size*perBundle+other*(perBundle-1) {
				t.Fatalf("%d messages in %d size-flushed + %d other bundles: a size flush must hold exactly %d, any other fewer (stats %+v)",
					as.BundledMessages, size, other, perBundle, as)
			}
			if txt := rt.StatsText(); !strings.Contains(txt, "peers (health/rtt_ns/egress_depth): 1:healthy/0/") {
				t.Fatalf("StatsText lacks the per-peer line:\n%s", txt)
			}
		})
	}
}
