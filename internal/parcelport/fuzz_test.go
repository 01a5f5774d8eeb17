package parcelport

import (
	"bytes"
	"testing"

	"hpxgo/internal/serialization"
)

// fuzzAllocCap keeps the fuzzer from staging what a real receiver would
// accept but a test process should not allocate.
const fuzzAllocCap = 1 << 20

// FuzzDecodeHeader feeds arbitrary bytes to the header decoder and drives
// every header it accepts through the shared receiver with fake completions,
// a fuzzed transmission chunk filling the transmission follow-up. Nothing
// may panic; valid headers must round-trip their piggybacked chunks; a
// rejected message releases its owner exactly once, and a completed one
// hands over buffers of the announced sizes.
func FuzzDecodeHeader(f *testing.F) {
	m := &serialization.Message{
		NonZeroCopy:  []byte("nzc-bytes"),
		Transmission: transChunk([2]uint64{0, 9000}),
		ZeroCopy:     [][]byte{make([]byte, 9000)},
	}
	buf := make([]byte, 512)
	n, _, _, err := EncodeHeader(buf, 7, m, 512, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[:n], []byte(nil))
	f.Add([]byte{}, []byte(nil))
	// A connectionless header (BaseTag 0, everything piggybacked) as the LCI
	// parcelport's direct parcel path writes it.
	p := &serialization.Parcel{Source: 1, Dest: 2, Action: 3, ContID: 4, Args: [][]byte{[]byte("arg"), {}}}
	f.Add(AppendParcelHeader(make([]byte, 0, ParcelHeaderSize(p)), p), []byte(nil))

	// Corrupted-wire seeds: the fabric's fault injector flips bits and
	// truncates in flight; the decoder must reject (or round-trip) every
	// mutation without panicking.
	for _, bit := range []int{0, 7, 31, 8 * (n / 2), 8*n - 1} {
		flipped := append([]byte(nil), buf[:n]...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped, []byte(nil))
	}
	for _, cut := range []int{1, n / 2, n - 1} {
		f.Add(append([]byte(nil), buf[:cut]...), []byte(nil))
	}
	// Size fields maxed out: length claims far beyond the data.
	maxed := append([]byte(nil), buf[:n]...)
	for i := 4; i < n && i < 28; i++ {
		maxed[i] = 0xFF
	}
	f.Add(maxed, []byte(nil))
	// All zeros and all ones at the fixed header size.
	f.Add(make([]byte, n), []byte(nil))
	f.Add(bytes.Repeat([]byte{0xFF}, n), []byte(nil))
	// The corrupt-input table, each transmission chunk both piggybacked and
	// as a follow-up.
	for _, row := range corruptRows {
		h := row.h
		if row.trans != nil {
			h.TransSize, h.NZC = uint64(len(row.trans)), []byte{}
			f.Add(rawHeader(h), row.trans)
			h.Trans = row.trans
		}
		f.Add(rawHeader(h), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, data, trans []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if h.PiggyNZC() && uint64(len(h.NZC)) != h.NZCSize {
			t.Fatal("piggybacked nzc length disagrees with header field")
		}
		if h.Trans != nil && uint64(len(h.Trans)) != h.TransSize {
			t.Fatal("piggybacked trans length disagrees with header field")
		}
		fuzzRecv(t, h, trans)
	})
}

// fuzzRecv runs h through Start/Next/Done. The transmission follow-up
// receives trans, truncated or zero-padded to the announced size; every
// other follow-up completes as is.
func fuzzRecv(t *testing.T, h Header, trans []byte) {
	staged := h.Trans
	if !h.PiggyTrans() && h.TransSize <= fuzzAllocCap {
		staged = make([]byte, h.TransSize)
		copy(staged, trans)
	}
	if tooBig(h.NZCSize) || tooBig(h.TransSize) {
		return
	}
	if sizes, err := serialization.ParseTransmissionSizes(staged); err == nil && h.NumZC > 0 {
		total := uint64(0)
		for _, sz := range sizes {
			total += sz
		}
		if total > fuzzAllocCap {
			return
		}
	}
	owner, probe := watchedOwner()
	var rx Recv
	err := rx.Start(h, owner)
	for steps := 0; err == nil; steps++ {
		if steps > int(h.NumZC)+2 {
			t.Fatalf("receiver asked for %d follow-ups for %d zero-copy chunks", steps, h.NumZC)
		}
		buf := rx.Next()
		if buf == nil {
			break
		}
		if rx.stage == stageTrans {
			copy(buf, staged)
		}
		err = rx.Done()
	}
	if err != nil {
		rx.Fail()
		rx.Fail()
		if got := probe.n.Load(); got != 1 {
			t.Fatalf("rejected message released its owner %d times", got)
		}
		return
	}
	got := rx.Message()
	if uint64(len(got.NonZeroCopy)) != h.NZCSize || uint64(len(got.Transmission)) != h.TransSize || len(got.ZeroCopy) != int(h.NumZC) {
		t.Fatalf("reassembled chunk sizes disagree with header %+v", h)
	}
	got.Owner.Release()
	if probe.n.Load() != 1 {
		t.Fatal("delivered owner not released exactly once")
	}
}

// tooBig reports a size the receiver accepts but the fuzzer will not stage.
func tooBig(sz uint64) bool { return sz > fuzzAllocCap && sz <= serialization.MaxChunkSize }
