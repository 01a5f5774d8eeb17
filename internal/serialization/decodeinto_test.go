package serialization

import (
	"bytes"
	"fmt"
	"testing"
)

// bundleOf encodes n parcels, each carrying argsPer inline arguments whose
// contents identify the (parcel, arg) pair.
func bundleOf(n, argsPer int) (*Message, []*Parcel) {
	ps := make([]*Parcel, n)
	for i := range ps {
		args := make([][]byte, argsPer)
		for j := range args {
			args[j] = []byte(fmt.Sprintf("p%d-a%d", i, j))
		}
		ps[i] = &Parcel{Action: uint32(i + 1), Source: 1, Dest: 0, ContID: uint64(i), Args: args}
	}
	return Encode(ps, 0), ps
}

func checkDecoded(t *testing.T, got []Parcel, want []*Parcel) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d parcels, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], want[i]
		if g.Action != w.Action || g.Source != w.Source || g.Dest != w.Dest || g.ContID != w.ContID {
			t.Fatalf("parcel %d header = %+v, want %+v", i, g, w)
		}
		if len(g.Args) != len(w.Args) {
			t.Fatalf("parcel %d has %d args, want %d", i, len(g.Args), len(w.Args))
		}
		for j := range g.Args {
			if !bytes.Equal(g.Args[j], w.Args[j]) {
				t.Fatalf("parcel %d arg %d = %q, want %q", i, j, g.Args[j], w.Args[j])
			}
		}
	}
}

// TestDecodeIntoReuse decodes messages of shrinking and growing sizes through
// one DecodeBuf and checks every round is decoded correctly — the slab must
// not leak state between rounds.
func TestDecodeIntoReuse(t *testing.T) {
	var buf DecodeBuf
	for _, n := range []int{5, 1, 17, 2, 9} {
		m, want := bundleOf(n, 3)
		got, err := DecodeInto(&buf, m)
		if err != nil {
			t.Fatalf("bundle of %d: %v", n, err)
		}
		checkDecoded(t, got, want)
	}
}

// TestDecodeIntoArgGrowth covers the spans fixup: enough arguments that the
// shared args slice reallocates mid-decode, which would invalidate windows
// taken eagerly.
func TestDecodeIntoArgGrowth(t *testing.T) {
	var buf DecodeBuf
	// First round small, so the second round's much larger arg count is
	// guaranteed to grow the recycled backing array mid-decode.
	m, want := bundleOf(2, 1)
	got, err := DecodeInto(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, got, want)
	m, want = bundleOf(30, 11)
	got, err = DecodeInto(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, got, want)
}

// TestDecodeIntoSteadyStateAllocs: after a warm-up decode of the same shape,
// DecodeInto must not allocate.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	var buf DecodeBuf
	m, _ := bundleOf(8, 4)
	if _, err := DecodeInto(&buf, m); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(&buf, m); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm DecodeInto allocates %.1f times per run, want 0", avg)
	}
}

// TestDecodeIntoErrorKeepsBufUsable: a corrupt message must error out and
// leave the buffer fully usable for the next decode.
func TestDecodeIntoErrorKeepsBufUsable(t *testing.T) {
	var buf DecodeBuf
	if _, err := DecodeInto(&buf, &Message{NonZeroCopy: []byte{1, 2, 3}}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
	m, want := bundleOf(4, 2)
	// Corrupt a copy: flip the magic.
	bad := &Message{NonZeroCopy: append([]byte(nil), m.NonZeroCopy...)}
	bad.NonZeroCopy[0] ^= 0xff
	if _, err := DecodeInto(&buf, bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	got, err := DecodeInto(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, got, want)
}
