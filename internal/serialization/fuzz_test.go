package serialization

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hpxgo/internal/wire"
)

// FuzzDecode feeds arbitrary bytes to the message decoder: it must never
// panic, and on valid re-encoded inputs it must round-trip.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings.
	small := Encode([]*Parcel{{Source: 1, Dest: 2, Action: 3, Args: [][]byte{[]byte("seed")}}}, 0)
	f.Add(small.NonZeroCopy)
	big := Encode([]*Parcel{{Args: [][]byte{make([]byte, DefaultZeroCopyThreshold)}}}, 0)
	f.Add(big.NonZeroCopy)
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x58, 0x50, 0x48}) // magic only
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf, buf2 DecodeBuf
		ps, err := DecodeInto(&buf, &Message{NonZeroCopy: data})
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same parcels.
		reenc := make([]*Parcel, len(ps))
		for i := range ps {
			reenc[i] = &ps[i]
		}
		ps2, err := DecodeInto(&buf2, Encode(reenc, 0))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(ps2) != len(ps) {
			t.Fatalf("parcel count changed: %d -> %d", len(ps), len(ps2))
		}
		for i := range ps {
			if ps[i].Action != ps2[i].Action || len(ps[i].Args) != len(ps2[i].Args) {
				t.Fatal("parcel changed across round trip")
			}
			for j := range ps[i].Args {
				if !bytes.Equal(ps[i].Args[j], ps2[i].Args[j]) {
					t.Fatal("arg changed across round trip")
				}
			}
		}
	})
}

// FuzzDecodeBundle feeds arbitrary bytes to the one decode as a received
// transfer, seeded with good, partly good and bad HPXB bundles. It must never
// panic; whatever prefix it returns must be whole messages (every parcel
// re-encodes and decodes to itself), and Frames must agree with the bundle
// header: never more than it announces, all of them when there is no error.
func FuzzDecodeBundle(f *testing.F) {
	for _, tc := range bundleCases() {
		f.Add(tc.bytes)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf DecodeBuf
		ps, err := DecodeInto(&buf, &Message{NonZeroCopy: data})
		if !wire.IsBundle(data) {
			if buf.Frames() != 0 {
				t.Fatalf("Frames() = %d for a non-bundle", buf.Frames())
			}
			return
		}
		if buf.Frames() > wire.BundleFrameCount(data) || (err == nil && buf.Frames() != wire.BundleFrameCount(data)) {
			t.Fatalf("Frames() = %d of a %d-frame bundle, err %v", buf.Frames(), wire.BundleFrameCount(data), err)
		}
		for i := range ps {
			one := EncodeOne(&ps[i], inlineAll)
			back, derr := decode(one)
			if derr != nil || len(back) != 1 || back[0].Action != ps[i].Action ||
				back[0].ContID != ps[i].ContID || len(back[0].Args) != len(ps[i].Args) {
				t.Fatalf("parcel %d does not survive a round trip: %v", i, derr)
			}
			for j := range ps[i].Args {
				if !bytes.Equal(back[0].Args[j], ps[i].Args[j]) {
					t.Fatalf("parcel %d arg %d changed across round trip", i, j)
				}
			}
		}
	})
}

// FuzzParseTransmissionSizes must never panic on arbitrary input, and what
// it accepts must be safe to allocate from: every size within MaxChunkSize,
// one entry per index.
func FuzzParseTransmissionSizes(f *testing.F) {
	valid := Encode([]*Parcel{{Args: [][]byte{make([]byte, 9000), make([]byte, 10000)}}}, 0)
	f.Add(valid.Transmission)
	f.Add([]byte{})
	entry := func(b []byte, idx uint32, size uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, idx), size)
	}
	count := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	f.Add(entry(count(1), 0, 1<<62))                         // reached make and panicked the progress goroutine
	f.Add(entry(count(1), 0, MaxChunkSize+1))                // one past the bound
	f.Add(entry(count(1), 0, MaxChunkSize))                  // at the bound
	f.Add(entry(entry(count(2), 0, 9000), 0, 9000))          // index 0 twice, index 1 never
	f.Add(entry(entry(count(2), 1, 9000), 0, ^uint64(0)))    // the duplicate-detection sentinel as a size
	f.Add(entry(entry(count(3), 2, 8192), 1, 8192)[:4+12+6]) // truncated mid-entry
	f.Fuzz(func(t *testing.T, data []byte) {
		sizes, err := ParseTransmissionSizes(data)
		if err != nil {
			return
		}
		if len(data) < 4+12*len(sizes) {
			t.Fatalf("%d entries accepted from %d bytes", len(sizes), len(data))
		}
		for i, s := range sizes {
			if s > MaxChunkSize {
				t.Fatalf("chunk %d: size %d accepted (an index listed twice leaves another unset)", i, s)
			}
		}
	})
}
