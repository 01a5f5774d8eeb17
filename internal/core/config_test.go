package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// TestNewRuntimeRejectsBadConfig: negative knobs are configuration errors,
// not requests for the default, and so is a transport that no longer exists.
// Zero still selects the default and a negative InlineBudget still means
// "lane off".
func TestNewRuntimeRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(*Config)
		wantErr string // "" = must be accepted
	}{
		{"zero values", func(c *Config) {}, ""},
		{"inline lane off", func(c *Config) { c.InlineBudget = -1 }, ""},
		{"Localities", func(c *Config) { c.Localities = -2 }, "Localities"},
		{"WorkersPerLocality", func(c *Config) { c.WorkersPerLocality = -1 }, "WorkersPerLocality"},
		{"AggFlushBytes", func(c *Config) { c.AggFlushBytes = -1 }, "AggFlushBytes"},
		{"AggFlushDelay", func(c *Config) { c.AggFlushDelay = -time.Microsecond }, "AggFlushDelay"},
		{"LCIDevices", func(c *Config) { c.LCIDevices = -1 }, "LCIDevices"},
		{"IdleSleep", func(c *Config) { c.IdleSleep = -time.Microsecond }, "IdleSleep"},
		{"DeliveryTimeout", func(c *Config) { c.DeliveryTimeout = -time.Second }, "DeliveryTimeout"},
		{"removed transport", func(c *Config) { c.Parcelport = "tcp" }, `transport "tcp"`},
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
