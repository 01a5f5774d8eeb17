package wire_test

// The argument-lifetime contract (DESIGN.md §9), tested where it can fail
// loudly: every test in this binary runs with PutBuf poisoning what it
// recycles and GetBuf checking the fill, so anything that reads a received
// buffer after its action returned sees 0xDB bytes, and anything that writes
// one after its owner returned it is counted. The runtime above wire is
// driven through its public API on all three transports.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/wire"
)

func TestMain(m *testing.M) {
	// On from the first Put, so no unpoisoned buffer is ever pooled.
	wire.SetPoison(true)
	os.Exit(m.Run())
}

const lifetimeTimeout = 30 * time.Second

var lifetimeTransports = []string{"lci", "mpi_i"}

// pattern returns n bytes determined by seed, none of them a run a recycled
// buffer could imitate.
func pattern(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range b {
		if i%8 == 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		b[i] = byte(x >> (8 * (i % 8)))
	}
	return b
}

func startRuntime(t *testing.T, cfg core.Config, register func(rt *core.Runtime)) *core.Runtime {
	t.Helper()
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	register(rt)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func checkPoolIntact(t *testing.T) {
	t.Helper()
	if n := wire.PoisonBroken(); n != 0 {
		t.Fatalf("%d recycled buffers were written to after their owner returned them", n)
	}
}

// TestLifetimeEcho: an echo action returns its args, so the reply aliases
// the request's receive buffers and the result the caller reads aliased the
// reply's. Each result is checked only after the next round trip has
// recycled both.
func TestLifetimeEcho(t *testing.T) {
	for _, pp := range lifetimeTransports {
		for _, size := range []int{1 << 20, 64 << 10} {
			t.Run(fmt.Sprintf("%s/%dKiB", pp, size>>10), func(t *testing.T) {
				var echo uint32
				rt := startRuntime(t, core.Config{Parcelport: pp}, func(rt *core.Runtime) {
					echo = rt.MustRegisterAction("echo", func(_ *core.Locality, a [][]byte) [][]byte { return a })
				})
				var prev, prevWant []byte
				for round := 0; round < 12; round++ {
					want := pattern(size, uint64(round))
					res, err := rt.Locality(0).CallID(1, echo, [][]byte{want, []byte("tag")}).GetTimeout(lifetimeTimeout)
					if err != nil || len(res) != 2 {
						t.Fatalf("round %d: %d results, err %v", round, len(res), err)
					}
					if !bytes.Equal(prev, prevWant) {
						t.Fatalf("round %d: the previous round's result changed after this round's transfers", round)
					}
					if !bytes.Equal(res[0], want) || string(res[1]) != "tag" {
						t.Fatalf("round %d: echo differs from what was sent", round)
					}
					prev, prevWant = res[0], want
				}
				checkPoolIntact(t)
			})
		}
	}
}

// TestLifetimeRetainedResult: a Call's result is the caller's for good. It
// is read after 100 further transfers have cycled the receive pool.
func TestLifetimeRetainedResult(t *testing.T) {
	const size = 256 << 10
	for _, pp := range lifetimeTransports {
		t.Run(pp, func(t *testing.T) {
			var produce, sink uint32
			rt := startRuntime(t, core.Config{Parcelport: pp}, func(rt *core.Runtime) {
				produce = rt.MustRegisterAction("produce", func(_ *core.Locality, a [][]byte) [][]byte {
					return [][]byte{pattern(size, binary.LittleEndian.Uint64(a[0]))}
				})
				sink = rt.MustRegisterAction("sink", func(_ *core.Locality, a [][]byte) [][]byte { return nil })
			})
			loc := rt.Locality(0)
			kept, err := loc.CallID(1, produce, [][]byte{wire.U64(7)}).GetTimeout(lifetimeTimeout)
			if err != nil || len(kept) != 1 {
				t.Fatalf("produce: %d results, err %v", len(kept), err)
			}
			// The same size class both ways: locality 1's results land in the
			// buffers the kept result arrived in.
			for i := 0; i < 100; i++ {
				if _, err := loc.CallID(1, sink, [][]byte{pattern(size, uint64(100+i))}).GetTimeout(lifetimeTimeout); err != nil {
					t.Fatal(err)
				}
				if _, err := loc.CallID(1, produce, [][]byte{wire.U64(uint64(200 + i))}).GetTimeout(lifetimeTimeout); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(kept[0], pattern(size, 7)) {
				t.Fatal("a Call result changed under its holder after 100 further transfers")
			}
			checkPoolIntact(t)
		})
	}
}

// concatFold keeps both operands' blobs by reference — legal for a fold, and
// the shape that breaks if a relay hands it bytes it does not own.
func concatFold(acc, partial [][]byte) [][]byte { return append(acc, partial...) }

// TestLifetimeCollectives: 64 KiB blobs through the binomial-tree relay of
// five localities (a non-power-of-two, so the trees are uneven), reduced at
// two roots whose trees give every locality a different place. The user
// action echoes its argument, the worst case: its result aliases the
// relay's own request.
func TestLifetimeCollectives(t *testing.T) {
	const n, size = 5, 64 << 10
	blob := pattern(size, 42)
	for _, pp := range lifetimeTransports {
		t.Run(pp, func(t *testing.T) {
			var bad atomic.Int64
			rt := startRuntime(t, core.Config{Localities: n, Parcelport: pp}, func(rt *core.Runtime) {
				rt.MustRegisterAction("check", func(_ *core.Locality, a [][]byte) [][]byte {
					if len(a) != 1 || !bytes.Equal(a[0], blob) {
						bad.Add(1)
					}
					return nil
				})
				rt.MustRegisterAction("echo", func(_ *core.Locality, a [][]byte) [][]byte { return a })
			})
			allBlobs := func(what string, got [][]byte) {
				t.Helper()
				if len(got) != n {
					t.Fatalf("%s: %d blobs, want %d", what, len(got), n)
				}
				for i, b := range got {
					if !bytes.Equal(b, blob) {
						t.Fatalf("%s: contribution %d differs from the blob every locality echoed", what, i)
					}
				}
			}
			for round := 0; round < 3; round++ {
				if err := rt.Broadcast(1, lifetimeTimeout, "check", blob); err != nil {
					t.Fatal(err)
				}
				if bad.Load() != 0 {
					t.Fatalf("Broadcast: %d localities saw a different blob", bad.Load())
				}
				red, err := rt.Reduce(2, lifetimeTimeout, "echo", concatFold, blob)
				if err != nil {
					t.Fatal(err)
				}
				allBlobs("Reduce", red)
				gat, err := rt.Gather(3, lifetimeTimeout, "echo", blob)
				if err != nil || len(gat) != n {
					t.Fatalf("Gather: %d results, err %v", len(gat), err)
				}
				for i, res := range gat {
					if len(res) != 1 || !bytes.Equal(res[0], blob) {
						t.Fatalf("Gather: locality %d's result differs", i)
					}
				}
				red0, err := rt.Reduce(0, lifetimeTimeout, "echo", concatFold, blob)
				if err != nil {
					t.Fatal(err)
				}
				allBlobs("Reduce at root 0", red0)
				allBlobs("Reduce, re-read after the later collectives", red)
			}
			checkPoolIntact(t)
		})
	}
}

// TestLifetimeStripedStreamUnderFaults: a window-4 stream of 1 MiB arguments
// striped over four rails while the fabric drops, duplicates and delays
// (reorders) packets. Every argument must arrive whole, and no chunk — late,
// retransmitted or duplicated — may land in a receive buffer after the
// transfer completed and the buffer went back to the pool.
func TestLifetimeStripedStreamUnderFaults(t *testing.T) {
	const size, window, total = 1 << 20, 4, 48
	payloads := make([][]byte, window)
	for i := range payloads {
		payloads[i] = pattern(size, uint64(1000+i))
	}
	var bad atomic.Int64
	inflight := make(chan struct{}, window) // one token per unacknowledged parcel
	var sink uint32
	rt := startRuntime(t, core.Config{
		Parcelport: "lci_i",
		Fabric: fabric.Config{
			LatencyNs: 200, GbitsPerSec: 100, Rails: 4,
			Faults:              fabric.FaultConfig{DropProb: 0.02, DupProb: 0.02, SpikeProb: 0.02, SpikeNs: 30_000, Seed: 21},
			RetransmitTimeoutNs: 200_000, AckDelayNs: 50_000, RetryBudget: 50,
		},
	}, func(rt *core.Runtime) {
		sink = rt.MustRegisterAction("sink", func(_ *core.Locality, a [][]byte) [][]byte {
			if len(a) != 2 || len(a[0]) != 8 || !bytes.Equal(a[1], payloads[binary.LittleEndian.Uint64(a[0])%window]) {
				bad.Add(1)
			}
			<-inflight
			return nil
		})
	})
	for seq := uint64(0); seq < total; seq++ {
		select {
		case inflight <- struct{}{}:
		case <-time.After(lifetimeTimeout):
			t.Fatalf("parcel %d: window never reopened", seq)
		}
		if err := rt.Locality(0).ApplyID(1, sink, [][]byte{wire.U64(seq), payloads[seq%window]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < window; i++ { // the window refills only once every sink has run
		select {
		case inflight <- struct{}{}:
		case <-time.After(lifetimeTimeout):
			t.Fatal("stream did not drain")
		}
	}
	if bad.Load() != 0 {
		t.Fatalf("%d of %d arguments arrived damaged", bad.Load(), total)
	}
	checkPoolIntact(t)
}
