package core

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func collectiveRuntime(t *testing.T, localities int) (*Runtime, *atomic.Int64) {
	t.Helper()
	rt, err := NewRuntime(Config{Localities: localities, WorkersPerLocality: 2, Parcelport: "lci"})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	rt.MustRegisterAction("mark", func(loc *Locality, args [][]byte) [][]byte {
		hits.Add(1)
		return nil
	})
	rt.MustRegisterAction("myid", func(loc *Locality, args [][]byte) [][]byte {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(loc.ID()))
		return [][]byte{out}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, &hits
}

func TestBroadcastHitsEveryLocality(t *testing.T) {
	rt, hits := collectiveRuntime(t, 4)
	if err := rt.Broadcast(1, 20*time.Second, "mark"); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 4 {
		t.Fatalf("broadcast hit %d localities, want 4", hits.Load())
	}
}

func TestBroadcastErrors(t *testing.T) {
	rt, _ := collectiveRuntime(t, 2)
	if err := rt.Broadcast(9, time.Second, "mark"); err == nil {
		t.Fatal("invalid source should fail")
	}
	if err := rt.Broadcast(0, time.Second, "nope"); err == nil {
		t.Fatal("unknown action should fail")
	}
}

func TestReduceSumsIDs(t *testing.T) {
	rt, _ := collectiveRuntime(t, 4)
	sum, err := rt.Reduce(0, 20*time.Second, "myid", func(acc, partial [][]byte) [][]byte {
		a := binary.LittleEndian.Uint64(acc[0])
		p := binary.LittleEndian.Uint64(partial[0])
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, a+p)
		return [][]byte{out}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(sum[0]); got != 0+1+2+3 {
		t.Fatalf("reduce sum = %d, want 6", got)
	}
}

func TestReduceValidation(t *testing.T) {
	rt, _ := collectiveRuntime(t, 2)
	if _, err := rt.Reduce(5, time.Second, "myid", func(a, p [][]byte) [][]byte { return a }); err == nil {
		t.Fatal("invalid root should fail")
	}
	if _, err := rt.Reduce(0, time.Second, "myid", nil); err == nil {
		t.Fatal("nil fold should fail")
	}
	if _, err := rt.Reduce(0, time.Second, "nope", func(a, p [][]byte) [][]byte { return a }); err == nil {
		t.Fatal("unknown action should fail")
	}
}

func TestGatherCollectsPerLocality(t *testing.T) {
	rt, _ := collectiveRuntime(t, 3)
	res, err := rt.Gather(2, 20*time.Second, "myid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("gather returned %d entries", len(res))
	}
	for l, blobs := range res {
		if got := binary.LittleEndian.Uint64(blobs[0]); got != uint64(l) {
			t.Fatalf("gather[%d] = %d", l, got)
		}
	}
}

// TestCollectiveDecodersRejectMalformed feeds malformed input to each
// collective decoder. A relay answers with an error reply, a __coll_data
// parcel bumps DecodeErrors, and a gather record fails to decode; none may
// panic, and a corrupt gather count must not size an allocation.
func TestCollectiveDecodersRejectMalformed(t *testing.T) {
	rt, _ := collectiveRuntime(t, 2)
	loc := rt.Locality(0)
	markID, _ := rt.ActionID("mark")
	hdr := func(edit func(*collHdr)) []byte {
		h := collHdr{kind: collKindBcast, id: 1, action: markID, deadlineNs: monoNs() + int64(time.Second)}
		edit(&h)
		return encodeCollHdr(h)
	}
	good := hdr(func(*collHdr) {})
	relay := []struct {
		name string
		args [][]byte
	}{
		{"no args", nil},
		{"empty header", [][]byte{{}}},
		{"short header", [][]byte{good[:collHdrLen-1]}},
		{"long header", [][]byte{append(append([]byte(nil), good...), 0)}},
		{"unknown kind", [][]byte{hdr(func(h *collHdr) { h.kind = 0xEE })}},
		{"unknown action", [][]byte{hdr(func(h *collHdr) { h.action = 1 << 20 })}},
		{"unregistered fold", [][]byte{hdr(func(h *collHdr) { h.kind, h.fold = collKindReduce, 1<<40 })}},
		{"unknown consume action", [][]byte{hdr(func(h *collHdr) { h.kind, h.aux = collKindAllToAll, 1<<20 })}},
	}
	for _, c := range relay {
		if _, err := parseCollReply(rt.collRelayAction(loc, c.args), nil); err == nil {
			t.Errorf("relay, %s: no error reply", c.name)
		}
	}

	data := []struct {
		name string
		args [][]byte
	}{
		{"no args", nil},
		{"empty header", [][]byte{{}}},
		{"short header", [][]byte{make([]byte, collDataHdrLen-1)}},
		{"long header", [][]byte{make([]byte, collDataHdrLen+1), []byte("block")}},
	}
	for _, c := range data {
		before := loc.DecodeErrors()
		rt.collDataAction(loc, c.args)
		if got := loc.DecodeErrors(); got != before+1 {
			t.Errorf("__coll_data, %s: DecodeErrors %d -> %d, want one bump", c.name, before, got)
		}
	}

	rec := encodeGatherRec(1, [][]byte{[]byte("abc"), []byte("de")})
	if id, blobs, err := decodeGatherRec(rec); err != nil || id != 1 || len(blobs) != 2 || string(blobs[1]) != "de" {
		t.Fatalf("well-formed gather record: id %d, blobs %q, err %v", id, blobs, err)
	}
	patched := func(off int, v uint32) []byte {
		b := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	recs := []struct {
		name string
		rec  []byte
	}{
		{"empty", nil},
		{"short", rec[:7]},
		{"truncated blob length", rec[:10]},
		{"truncated blob", rec[:len(rec)-1]},
		{"huge count", patched(4, math.MaxUint32)},
		{"count one too many", patched(4, 3)},
		{"huge blob length", patched(8, math.MaxUint32)},
	}
	for _, c := range recs {
		if _, _, err := decodeGatherRec(c.rec); err == nil {
			t.Errorf("gather record, %s: decoded without error", c.name)
		}
	}
}
