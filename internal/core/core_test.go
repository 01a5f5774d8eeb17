package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/parcelport"
)

// allConfigs is every Table 1 configuration plus the §3.1 original-MPI
// ablation variants.
func allConfigs() []string {
	var names []string
	for _, c := range parcelport.Table1() {
		names = append(names, c.String())
	}
	return append(names, "mpi_orig", "mpi_orig_i")
}

// newRuntime builds a started runtime with an echo action registered.
func newRuntime(t *testing.T, ppName string, localities int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Parcelport:         ppName,
		Fabric:             fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("echo", func(loc *Locality, args [][]byte) [][]byte {
		return args
	})
	rt.MustRegisterAction("whoami", func(loc *Locality, args [][]byte) [][]byte {
		return [][]byte{{byte(loc.ID())}}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestCallEchoAllConfigs(t *testing.T) {
	for _, name := range allConfigs() {
		name := name
		t.Run(name, func(t *testing.T) {
			rt := newRuntime(t, name, 2)
			payload := []byte("ping across the fabric")
			f := rt.Locality(0).Call(1, "echo", payload)
			res, err := f.GetTimeout(20 * time.Second)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res) != 1 || !bytes.Equal(res[0], payload) {
				t.Fatalf("%s: bad echo %q", name, res)
			}
		})
	}
}

func TestLargeZeroCopyArgsAllTransports(t *testing.T) {
	// 16KiB and 64KiB arguments exercise the zero-copy chunk path (and the
	// rendezvous protocols underneath).
	for _, name := range []string{"mpi", "mpi_i", "lci_psr_cq_pin_i", "lci_sr_sy_mt_i", "mpi_orig"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rt := newRuntime(t, name, 2)
			for _, size := range []int{16 * 1024, 64 * 1024} {
				big := make([]byte, size)
				for i := range big {
					big[i] = byte(i * 13)
				}
				f := rt.Locality(0).Call(1, "echo", []byte("small"), big)
				res, err := f.GetTimeout(20 * time.Second)
				if err != nil {
					t.Fatalf("%s size %d: %v", name, size, err)
				}
				if len(res) != 2 || !bytes.Equal(res[1], big) {
					t.Fatalf("%s size %d: payload corrupted", name, size)
				}
			}
		})
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	for _, name := range []string{"mpi_i", "lci_psr_cq_pin_i", "lci_sr_cq_mt_i", "lci_psr_sy_pin_i"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rt := newRuntime(t, name, 2)
			const n = 100
			futs := make([]interface {
				GetTimeout(time.Duration) ([][]byte, error)
			}, n)
			for i := 0; i < n; i++ {
				size := 1 + (i%40)*400 // mixes eager and rendezvous paths
				arg := bytes.Repeat([]byte{byte(i)}, size)
				futs[i] = rt.Locality(0).Call(1, "echo", arg)
			}
			for i, f := range futs {
				res, err := f.GetTimeout(60 * time.Second)
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if len(res) != 1 || len(res[0]) != 1+(i%40)*400 || res[0][0] != byte(i) {
					t.Fatalf("call %d corrupted", i)
				}
			}
		})
	}
}

func TestApplyFireAndForget(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	rt.MustRegisterAction("count", func(loc *Locality, args [][]byte) [][]byte {
		hits.Add(1)
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	const n = 50
	for i := 0; i < n; i++ {
		if err := rt.Locality(0).Apply(1, "count", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for hits.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hits.Load() != n {
		t.Fatalf("executed %d actions, want %d", hits.Load(), n)
	}
}

func TestLocalShortCircuit(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	loc := rt.Locality(0)
	f := loc.Call(0, "whoami")
	res, err := f.GetTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0][0] != 0 {
		t.Fatalf("local call answered by %d", res[0][0])
	}
	// Local invocations must not touch the parcel layer.
	if rt.Locality(0).ParcelLayer().Stats().ParcelsSent != 0 {
		t.Fatal("local call went through the parcel layer")
	}
}

func TestAllToAll(t *testing.T) {
	for _, name := range []string{"mpi_i", "lci_psr_cq_pin_i"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rt := newRuntime(t, name, 4)
			type futT = interface {
				GetTimeout(time.Duration) ([][]byte, error)
			}
			var futs []futT
			var wants []byte
			for src := 0; src < 4; src++ {
				for dst := 0; dst < 4; dst++ {
					if src == dst {
						continue
					}
					futs = append(futs, rt.Locality(src).Call(dst, "whoami"))
					wants = append(wants, byte(dst))
				}
			}
			for i, f := range futs {
				res, err := f.GetTimeout(30 * time.Second)
				if err != nil {
					t.Fatalf("pair %d: %v", i, err)
				}
				if res[0][0] != wants[i] {
					t.Fatalf("pair %d answered by %d, want %d", i, res[0][0], wants[i])
				}
			}
		})
	}
}

func TestUnknownAction(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	if err := rt.Locality(0).Apply(1, "nope"); err == nil {
		t.Fatal("Apply of unknown action should fail")
	}
	if _, err := rt.Locality(0).Call(1, "nope").GetTimeout(time.Second); err == nil {
		t.Fatal("Call of unknown action should fail")
	}
}

func TestInvalidDestination(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	if err := rt.Locality(0).Apply(7, "echo"); err == nil {
		t.Fatal("invalid destination should fail")
	}
	if _, err := rt.Locality(0).Call(-1, "echo").GetTimeout(time.Second); err == nil {
		t.Fatal("negative destination should fail")
	}
}

func TestRegisterAfterStartFails(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	if _, err := rt.RegisterAction("late", func(*Locality, [][]byte) [][]byte { return nil }); err == nil {
		t.Fatal("registration after Start should fail")
	}
}

func TestDuplicateRegistrationFails(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("a", func(*Locality, [][]byte) [][]byte { return nil })
	if _, err := rt.RegisterAction("a", func(*Locality, [][]byte) [][]byte { return nil }); err == nil {
		t.Fatal("duplicate registration should fail")
	}
}

func TestBadParcelportName(t *testing.T) {
	if _, err := NewRuntime(Config{Parcelport: "smoke-signals"}); err == nil {
		t.Fatal("unknown parcelport name should fail")
	}
}

func TestParcelportNameExposed(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	if got := rt.ParcelportName(); got != "lci_psr_cq_pin_i" {
		t.Fatalf("ParcelportName = %q", got)
	}
}

func TestMultipleResultBlobs(t *testing.T) {
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "mpi"})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("split", func(loc *Locality, args [][]byte) [][]byte {
		var out [][]byte
		for _, b := range args[0] {
			out = append(out, []byte{b})
		}
		return out
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	res, err := rt.Locality(0).Call(1, "split", []byte{9, 8, 7}).GetTimeout(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0][0] != 9 || res[1][0] != 8 || res[2][0] != 7 {
		t.Fatalf("bad result blobs %v", res)
	}
}

func TestChainedRemoteCalls(t *testing.T) {
	// Locality 0 calls 1, whose action calls 2, testing nested communication
	// from within an action task.
	rt, err := NewRuntime(Config{Localities: 3, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("leaf", func(loc *Locality, args [][]byte) [][]byte {
		return [][]byte{[]byte(fmt.Sprintf("leaf@%d", loc.ID()))}
	})
	rt.MustRegisterAction("relay", func(loc *Locality, args [][]byte) [][]byte {
		res, err := loc.Call(2, "leaf").GetTimeout(20 * time.Second)
		if err != nil {
			return [][]byte{[]byte("error")}
		}
		return append([][]byte{[]byte("via1")}, res...)
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	res, err := rt.Locality(0).Call(1, "relay").GetTimeout(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || string(res[0]) != "via1" || string(res[1]) != "leaf@2" {
		t.Fatalf("chained call result %q", res)
	}
}

func TestParcelsExecutedCounter(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	for i := 0; i < 5; i++ {
		if _, err := rt.Locality(0).Call(1, "echo", []byte{1}).GetTimeout(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Locality(1).ParcelsExecuted(); got != 5 {
		t.Fatalf("locality 1 executed %d parcels, want 5", got)
	}
}

func TestContinuationEncoding(t *testing.T) {
	// The continuation id must round-trip through the reserved action's
	// binary encoding.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 0xDEADBEEFCAFE)
	if binary.LittleEndian.Uint64(buf[:]) != 0xDEADBEEFCAFE {
		t.Fatal("encoding sanity")
	}
}

func TestMultiDeviceRuntime(t *testing.T) {
	// The §7.2 future-work configuration: replicated LCI devices per
	// locality, exercised through the full runtime.
	rt, err := NewRuntime(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		LCIDevices:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.MustRegisterAction("echo3", func(loc *Locality, args [][]byte) [][]byte { return args })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	for i := 0; i < 30; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100+i*500)
		res, err := rt.Locality(0).Call(1, "echo3", payload).GetTimeout(20 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(res) != 1 || !bytes.Equal(res[0], payload) {
			t.Fatalf("call %d corrupted", i)
		}
	}
}

func TestStatsTextCoversTransports(t *testing.T) {
	for _, tc := range []struct {
		pp      string
		agg     bool
		devices int
		needles []string
	}{
		{pp: "lci", needles: []string{"lci parcelport", "lci device 0:", "fabric device 0:"}},
		{pp: "mpi_i", needles: []string{"mpi library", "fabric device 0:"}},
		{pp: "lci", agg: true, needles: []string{"direct), flushes 1 quiet / 0 size / 0 age / 0 cap / 0 order / 0 stop"}},
		// Every replicated device gets its own lci and fabric line.
		{pp: "lci", devices: 2, needles: []string{"lci device 0:", "lci device 1:", "fabric device 0:", "fabric device 1:"}},
	} {
		rt, err := NewRuntime(Config{
			WorkersPerLocality: 2,
			Parcelport:         tc.pp,
			Aggregation:        tc.agg,
			LCIDevices:         tc.devices,
			Fabric:             fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.MustRegisterAction("echo", func(loc *Locality, args [][]byte) [][]byte { return args })
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		if _, err := rt.Locality(0).Call(1, "echo", []byte("x")).GetTimeout(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		text := rt.StatsText()
		for _, needle := range tc.needles {
			if !strings.Contains(text, needle) {
				t.Fatalf("%s stats missing %q:\n%s", rt.ParcelportName(), needle, text)
			}
		}
		if !strings.Contains(text, "locality 1") {
			t.Fatalf("%s stats missing locality block", rt.ParcelportName())
		}
		// One count per wire-pool size class, the rendezvous classes last.
		if !regexp.MustCompile(`buffer pool misses by class \(process-wide\): 256B=\d+ 1K=\d+ .* 1M=\d+ 4M=\d+\n`).MatchString(text) {
			t.Fatalf("%s stats missing the pool-miss line:\n%s", rt.ParcelportName(), text)
		}
	}
}

func TestPendingContinuationsDrains(t *testing.T) {
	rt := newRuntime(t, "lci", 2)
	loc := rt.Locality(0)
	futs := make([]interface {
		GetTimeout(time.Duration) ([][]byte, error)
	}, 10)
	for i := range futs {
		futs[i] = loc.Call(1, "echo", []byte{byte(i)})
	}
	for _, f := range futs {
		if _, err := f.GetTimeout(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for loc.PendingContinuations() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := loc.PendingContinuations(); got != 0 {
		t.Fatalf("continuation table leaked %d entries", got)
	}
}
