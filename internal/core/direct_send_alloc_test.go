package core

import "testing"

// TestDirectSendZeroAllocs is the send-side allocation gate of the direct
// path: with aggregation off, a warm 64 B ApplyID on lci_i serializes the
// parcel straight into an LCI packet and posts it connectionless — no
// Message, no encode scratch, no connection — so the sender allocates
// nothing per op. A credit window bounds the parcels in flight. The
// receiver drains and runs the inline sink concurrently, and the receive
// side is zero-alloc too (TestDeliverBundleZeroAllocs and friends), so the
// process-wide count reads the sender's cost: 1 with a Message per send, 2
// with a connection per send too.
func TestDirectSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race builds")
	}
	rt, err := NewRuntime(Config{Localities: 2, WorkersPerLocality: 2, Parcelport: "lci_i"})
	if err != nil {
		t.Fatal(err)
	}
	const window = 64
	credits := make(chan struct{}, window) // one token per parcel whose sink has not run
	sink := rt.MustRegisterInlineAction("direct_send_sink", func(*Locality, [][]byte) [][]byte {
		<-credits
		return nil
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	l := rt.Locality(0)
	args := [][]byte{make([]byte, 64)}
	send := func() {
		credits <- struct{}{}
		if err := l.ApplyID(1, sink, args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(5000, send); avg != 0 {
		t.Fatalf("a warm 64 B ApplyID with aggregation off allocates %.0f times per op, want 0", avg)
	}
}
