package lcipp

import (
	"sync"
	"testing"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// newMultiRig builds a two-locality bench with nDevs replicated LCI devices
// per locality.
func newMultiRig(t *testing.T, cfg Config, nDevs int) *rig {
	t.Helper()
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2, LatencyNs: 100, DevicesPerNode: nDevs})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{}
	for i := 0; i < 2; i++ {
		i := i
		r.scheds[i] = amt.New(amt.Config{Workers: 1})
		devs := make([]*lci.Device, nDevs)
		for di := range devs {
			devs[di] = lci.NewDevice(net.DeviceN(i, di), lci.Config{}, nil)
		}
		pp, err := NewMulti(devs, r.scheds[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.pps[i] = pp
		if err := pp.Start(func(m *serialization.Message) {
			r.mu.Lock()
			r.received[i] = append(r.received[i], m)
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		r.pps[0].Stop()
		r.pps[1].Stop()
		r.scheds[0].Stop()
		r.scheds[1].Stop()
	})
	return r
}

func TestMultiDeviceRoundTripAllVariants(t *testing.T) {
	for _, cfg := range variantConfigs() {
		cfg := cfg
		name := parcelport.Config{Transport: parcelport.TransportLCI, Protocol: cfg.Protocol,
			Completion: cfg.Completion, Progress: cfg.Progress}.String()
		t.Run(name, func(t *testing.T) {
			r := newMultiRig(t, cfg, 3)
			if r.pps[0].Devices() != 3 {
				t.Fatalf("Devices = %d", r.pps[0].Devices())
			}
			const n = 30 // enough messages to stripe across all 3 devices
			var parcels []*serialization.Parcel
			for i := 0; i < n; i++ {
				m, p := msgWith(t, 16+i, 9000)
				parcels = append(parcels, p)
				r.pps[0].Send(1, m)
			}
			r.pump(t, 30*time.Second, func() bool {
				return len(r.received[1]) == n && r.pps[0].Stats().MessagesSent == n
			})
			// Match by unique small-arg length (ordering is not guaranteed
			// across devices).
			seen := make([]bool, n)
			for _, m := range r.received[1] {
				var buf serialization.DecodeBuf
				ps, err := serialization.DecodeInto(&buf, m)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for i, p := range parcels {
					if !seen[i] && len(ps[0].Args[0]) == len(p.Args[0]) {
						checkRoundTrip(t, m, p)
						seen[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Fatal("message matches no parcel")
				}
			}
		})
	}
}

func TestMultiDeviceStripesAcrossDevices(t *testing.T) {
	r := newMultiRig(t, Config{Progress: parcelport.WorkerProgress}, 3)
	const n = 60
	for i := 0; i < n; i++ {
		m, _ := msgWith(t, 8)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 20*time.Second, func() bool { return len(r.received[1]) == n })
	// Each sender device should have carried some headers.
	used := 0
	for _, d := range r.pps[0].devs {
		if d.Stats().PutsSent > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d of 3 devices carried traffic", used)
	}
}

func TestMultiDeviceConcurrentSenders(t *testing.T) {
	r := newMultiRig(t, Config{Progress: parcelport.WorkerProgress}, 2)
	const senders, each = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m, _ := msgWith(t, 64, 9000)
				r.pps[0].Send(1, m)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	r.pump(t, 60*time.Second, func() bool {
		return len(r.received[1]) == senders*each
	})
	<-done
}

// TestMultiDeviceHeterogeneousEagerCap: the header cap must honour the
// smallest eager threshold across ALL replicated devices, not just devs[0].
// With the old devs[0]-only logic a header planned against an 8192-byte cap
// was encoded into the 2048-byte packet buffers of the smaller device
// whenever a connection striped there, and the message was dropped.
func TestMultiDeviceHeterogeneousEagerCap(t *testing.T) {
	eager := []int{8192, 2048, 8192}
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2, LatencyNs: 100, DevicesPerNode: len(eager)})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{}
	for i := 0; i < 2; i++ {
		i := i
		r.scheds[i] = amt.New(amt.Config{Workers: 1})
		devs := make([]*lci.Device, len(eager))
		for di := range devs {
			devs[di] = lci.NewDevice(net.DeviceN(i, di), lci.Config{EagerThreshold: eager[di]}, nil)
		}
		pp, err := NewMulti(devs, r.scheds[i], Config{Progress: parcelport.WorkerProgress})
		if err != nil {
			t.Fatal(err)
		}
		r.pps[i] = pp
		if err := pp.Start(func(m *serialization.Message) {
			r.mu.Lock()
			r.received[i] = append(r.received[i], m)
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		r.pps[0].Stop()
		r.pps[1].Stop()
		r.scheds[0].Stop()
		r.scheds[1].Stop()
	})
	if got := r.pps[0].MaxHeaderSize(); got != 2048 {
		t.Fatalf("MaxHeaderSize = %d, want 2048 (min eager threshold across devices)", got)
	}
	// Payloads above the smallest eager limit but below the largest: headers
	// planned against the old devs[0] cap piggybacked them and overflowed the
	// small device's packets; they must all round-trip as follow-up chunks.
	const n = 30
	var parcels []*serialization.Parcel
	for i := 0; i < n; i++ {
		m, p := msgWith(t, 3000+i)
		parcels = append(parcels, p)
		r.pps[0].Send(1, m)
	}
	r.pump(t, 30*time.Second, func() bool {
		return len(r.received[1]) == n && r.pps[0].Stats().MessagesSent == n
	})
	seen := make([]bool, n)
	for _, m := range r.received[1] {
		var buf serialization.DecodeBuf
		ps, err := serialization.DecodeInto(&buf, m)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for i, p := range parcels {
			if !seen[i] && len(ps[0].Args[0]) == len(p.Args[0]) {
				checkRoundTrip(t, m, p)
				seen[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatal("message matches no parcel")
		}
	}
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(nil, nil, Config{Progress: parcelport.WorkerProgress}); err == nil {
		t.Fatal("empty device list should fail")
	}
}
