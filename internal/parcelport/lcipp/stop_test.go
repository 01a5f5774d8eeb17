package lcipp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// TestPinnedProgressGoroutinesJoinOnStop: pin mode starts one dedicated
// lci-progress goroutine per device at Start, and Stop must join every one
// of them — after traffic has flowed, the goroutine count returns to its
// pre-Start value.
func TestPinnedProgressGoroutinesJoinOnStop(t *testing.T) {
	for _, nDevs := range []int{1, 2} {
		t.Run(fmt.Sprintf("devices=%d", nDevs), func(t *testing.T) {
			net, err := fabric.NewNetwork(fabric.Config{Nodes: 2, LatencyNs: 100, DevicesPerNode: nDevs})
			if err != nil {
				t.Fatal(err)
			}
			var pps [2]*Parcelport
			for i := range pps {
				sched := amt.New(amt.Config{Workers: 1})
				t.Cleanup(sched.Stop)
				devs := make([]*lci.Device, nDevs)
				for di := range devs {
					devs[di] = lci.NewDevice(net.DeviceN(i, di), lci.Config{}, nil)
				}
				pps[i], err = NewMulti(devs, sched, Config{Progress: parcelport.PinnedProgress})
				if err != nil {
					t.Fatal(err)
				}
			}
			before := runtime.NumGoroutine()
			var received atomic.Int64
			for _, pp := range pps {
				if err := pp.Start(func(*serialization.Message) { received.Add(1) }); err != nil {
					t.Fatal(err)
				}
			}
			if got := runtime.NumGoroutine(); got <= before {
				t.Fatalf("goroutines after Start = %d, before = %d: no lci-progress goroutine to join", got, before)
			}

			const n = 20 // enough messages to stripe across both devices
			for i := 0; i < n; i++ {
				m, _ := msgWith(t, 16+i, 9000)
				pps[0].Send(1, m)
			}
			deadline := time.Now().Add(30 * time.Second)
			for received.Load() < n || pps[0].Stats().MessagesSent < n {
				if time.Now().After(deadline) {
					t.Fatalf("received %d/%d messages", received.Load(), n)
				}
				pps[0].BackgroundWork(0)
				pps[1].BackgroundWork(0)
			}

			pps[0].Stop()
			pps[1].Stop()
			// Stop joins synchronously; the retry only absorbs the scheduler
			// reaping an exited goroutine a moment after its done channel
			// closed.
			for try := 0; runtime.NumGoroutine() > before; try++ {
				if try == 200 {
					t.Fatalf("goroutines after Stop = %d, want %d: progress goroutines leaked", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
