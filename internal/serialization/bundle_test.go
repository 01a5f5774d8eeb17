package serialization

import (
	"encoding/binary"
	"errors"
	"testing"

	"hpxgo/internal/wire"
)

// frameParcels returns n distinguishable single-argument parcels, the shape
// the aggregation layer frames one per sub-message.
func frameParcels(n int) []*Parcel {
	_, ps := bundleOf(n, 1)
	return ps
}

// bundleFrames packs each parcel as its own frame of one HPXB bundle, the
// way Aggregator.Send (copying a pre-encoded message) and SendParcel
// (encoding in place) alternate to build one.
func bundleFrames(ps []*Parcel) []byte {
	b := wire.BeginBundle(nil)
	for i, p := range ps {
		if i%2 == 0 {
			b = wire.AppendFrame(b, EncodeOne(p, 0).NonZeroCopy)
		} else {
			b = AppendEncodeInline(wire.AppendFrameHeader(b, EncodedSizeInline(p)), p)
		}
	}
	return b
}

// frameOffset returns where frame i's length prefix starts.
func frameOffset(b []byte, i int) int {
	off := wire.BundleHeaderSize
	for ; i > 0; i-- {
		off += wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(b[off:]))
	}
	return off
}

// bundleCases is the table the bundle decode test, the fuzz seeds and the
// delivery test (internal/core) share: every way a transfer can be a good,
// a partly good or a bad bundle. good is how many leading parcels decode.
func bundleCases() []struct {
	name  string
	bytes []byte
	good  int
	bad   bool
} {
	ps := frameParcels(39)
	whole := bundleFrames(ps[:8])
	corrupt := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), whole...)) }
	return []struct {
		name  string
		bytes []byte
		good  int
		bad   bool
	}{
		{"plain message", Encode(ps[:3], 0).NonZeroCopy, 3, false},
		{"1 frame", bundleFrames(ps[:1]), 1, false},
		{"8 frames", whole, 8, false},
		{"39 frames", bundleFrames(ps), 39, false},
		{"empty bundle", wire.BeginBundle(nil), 0, false},
		{"truncated frame header", corrupt(func(b []byte) []byte {
			return b[:frameOffset(b, 5)+2]
		}), 5, true},
		{"payload length past the end", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameOffset(b, 6):], 1<<20)
			return b
		}), 6, true},
		{"trailing garbage", corrupt(func(b []byte) []byte {
			return append(b, 0xde, 0xad)
		}), 8, true},
		{"count beyond the frames", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 9)
			return b
		}), 8, true},
		{"bad HPX1 magic mid-bundle", corrupt(func(b []byte) []byte {
			b[frameOffset(b, 3)+wire.FrameHeaderSize] ^= 0xff
			return b
		}), 3, true},
		{"truncated parcel mid-bundle", corrupt(func(b []byte) []byte {
			// Frame 4 claims two parcels but carries one.
			binary.LittleEndian.PutUint32(b[frameOffset(b, 4)+wire.FrameHeaderSize+4:], 2)
			return b
		}), 4, true},
		{"bad magic in frame 0", corrupt(func(b []byte) []byte {
			b[frameOffset(b, 0)+wire.FrameHeaderSize] ^= 0xff
			return b
		}), 0, true},
	}
}

// TestDecodeIntoBundle: one decode entry point for messages and bundles.
// Every frame lands in the same slab; a bundle stops at its first corrupt
// frame, returning the parcels before it together with the error.
func TestDecodeIntoBundle(t *testing.T) {
	want := frameParcels(39)
	var buf DecodeBuf // shared across cases: no state may leak between them
	for _, tc := range bundleCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := &Message{NonZeroCopy: tc.bytes}
			got, err := DecodeInto(&buf, m)
			if (err != nil) != tc.bad {
				t.Fatalf("err = %v, want error: %v", err, tc.bad)
			}
			checkDecoded(t, got, want[:tc.good])
			wantFrames := 0
			if wire.IsBundle(tc.bytes) {
				wantFrames = tc.good
			}
			if buf.Frames() != wantFrames {
				t.Fatalf("Frames() = %d, want %d", buf.Frames(), wantFrames)
			}
		})
	}
}

// TestDecodeIntoBundleErrors pins which error a corrupt bundle reports:
// framing faults are wire.ErrBundle, a bad frame is the message decoder's.
func TestDecodeIntoBundleErrors(t *testing.T) {
	var buf DecodeBuf
	for _, tc := range bundleCases() {
		_, err := DecodeInto(&buf, &Message{NonZeroCopy: tc.bytes})
		switch tc.name {
		case "truncated frame header", "payload length past the end", "trailing garbage", "count beyond the frames":
			if !errors.Is(err, wire.ErrBundle) {
				t.Errorf("%s: err = %v, want wire.ErrBundle", tc.name, err)
			}
		case "bad HPX1 magic mid-bundle", "bad magic in frame 0":
			if !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s: err = %v, want ErrBadMagic", tc.name, err)
			}
		case "truncated parcel mid-bundle":
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
			}
		}
	}
}

// TestDecodeIntoBundleWithZeroCopyIsNotABundle: a transfer with zero-copy
// chunks is never a bundle (the aggregation layer passes those through), so
// bundle magic in its non-zero-copy chunk is just a bad message.
func TestDecodeIntoBundleWithZeroCopyIsNotABundle(t *testing.T) {
	var buf DecodeBuf
	m := &Message{NonZeroCopy: bundleFrames(frameParcels(2)), ZeroCopy: [][]byte{make([]byte, 9000)}}
	if ps, err := DecodeInto(&buf, m); !errors.Is(err, ErrBadMagic) || ps != nil {
		t.Fatalf("DecodeInto = %d parcels, err %v; want none, ErrBadMagic", len(ps), err)
	}
}

// TestDecodeIntoBundleSteadyStateAllocs: a warm bundle decode allocates
// nothing, like a warm message decode.
func TestDecodeIntoBundleSteadyStateAllocs(t *testing.T) {
	var buf DecodeBuf
	m := &Message{NonZeroCopy: bundleFrames(frameParcels(39))}
	if _, err := DecodeInto(&buf, m); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if ps, err := DecodeInto(&buf, m); err != nil || len(ps) != 39 {
			t.Fatal(len(ps), err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm bundle DecodeInto allocates %.1f times per run, want 0", avg)
	}
}
