package lcipp

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// TestRetryAppendedWhileIdleDrivenOnce: connections put on the retry list by
// another goroutine while both localities' background passes spin over an
// empty list are each driven, and their message delivered, exactly once.
// The passes find the list empty by an atomic length load, without the
// lock; run under -race this shows that check loses no entry.
func TestRetryAppendedWhileIdleDrivenOnce(t *testing.T) {
	r := newRig(t, Config{Progress: parcelport.WorkerProgress}, fabric.Config{}, lci.Config{})
	const k = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.pps[0].BackgroundWork(0)
				r.pps[1].BackgroundWork(0)
			}
		}
	}()
	for i := 0; i < k; i++ {
		p := &serialization.Parcel{Source: 0, Dest: 1, Action: 9, Args: [][]byte{binary.LittleEndian.AppendUint32(nil, uint32(i))}}
		// A connection that never posted: its first drive sends the header.
		r.pps[0].addRetry(newSenderConn(r.pps[0], 1, serialization.Encode([]*serialization.Parcel{p}, 0)))
		if i%16 == 0 {
			time.Sleep(50 * time.Microsecond) // let the passes go idle between bursts
		}
	}
	delivered := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.received[1])
	}
	for deadline := time.Now().Add(5 * time.Second); delivered() < k && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond) // a twice-driven entry would land now
	close(stop)
	wg.Wait()
	seen := make([]int, k)
	var buf serialization.DecodeBuf
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.received[1] {
		ps, err := serialization.DecodeInto(&buf, m)
		if err != nil || len(ps) != 1 || len(ps[0].Args) != 1 {
			t.Fatalf("undecodable delivery: %v", err)
		}
		seen[binary.LittleEndian.Uint32(ps[0].Args[0])]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("message %d delivered %d times, want 1", i, c)
		}
	}
	if n := r.pps[0].retryLen.Load(); n != 0 {
		t.Fatalf("retry list still counts %d entries", n)
	}
}
