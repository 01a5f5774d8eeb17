package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
)

// TestRendezvousStreamAllocBytes is the allocation gate of the large-message
// receive path: in steady state a window-4 stream of 1 MiB zero-copy
// arguments over lci_i on four rails allocates a few hundred bytes of
// connection state per transfer — not the megabyte receive buffer, which
// comes from the wire pool and goes back when the sink returns. The measure
// is a heap byte count (runtime.MemStats.TotalAlloc), so it does not depend
// on the host's speed; with the buffer allocated per transfer it reads
// ≈ 1 050 000.
func TestRendezvousStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector; gate runs in non-race builds")
	}
	const size, window, warm, measured = 1 << 20, 4, 64, 512
	const maxBytesPerTransfer = 8 << 10
	rt, err := NewRuntime(Config{
		Localities: 2, WorkersPerLocality: 2, Parcelport: "lci_i",
		Fabric: fabric.Config{LatencyNs: 500, GbitsPerSec: 100, Rails: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var short atomic.Int64
	inflight := make(chan struct{}, window) // one token per parcel whose sink has not run
	sink := rt.MustRegisterAction("rdv_sink", func(_ *Locality, a [][]byte) [][]byte {
		if len(a) != 1 || len(a[0]) != size {
			short.Add(1)
		}
		<-inflight
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	args := [][]byte{make([]byte, size)}
	stream := func(n int) {
		for i := 0; i < n; i++ {
			select {
			case inflight <- struct{}{}:
			case <-time.After(30 * time.Second):
				t.Fatal("window never reopened")
			}
			if err := rt.Locality(0).ApplyID(1, sink, args); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(measured)
	runtime.ReadMemStats(&after)
	if short.Load() != 0 {
		t.Fatalf("%d transfers arrived with the wrong shape", short.Load())
	}
	per := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("%d heap bytes allocated per 1 MiB transfer (%d transfers, %d GC cycles)", per, measured, after.NumGC-before.NumGC)
	if per > maxBytesPerTransfer {
		t.Fatalf("%d heap bytes allocated per 1 MiB transfer, want <= %d: the receive buffer is not coming from the pool", per, maxBytesPerTransfer)
	}
}
