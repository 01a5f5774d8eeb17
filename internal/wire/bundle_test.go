package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestBundleRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("first"),
		{}, // empty frames are legal
		bytes.Repeat([]byte{0xab}, 300),
		[]byte("last"),
	}
	buf := BeginBundle(GetBuf(0))
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	if !IsBundle(buf) {
		t.Fatal("IsBundle = false for a freshly built bundle")
	}
	if got := BundleFrameCount(buf); got != len(payloads) {
		t.Fatalf("frame count = %d, want %d", got, len(payloads))
	}
	var got [][]byte
	err := ForEachFrame(buf, func(frame []byte) error {
		got = append(got, append([]byte(nil), frame...))
		return nil
	})
	if err != nil {
		t.Fatalf("ForEachFrame: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("iterated %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestBundleRejectsMalformed(t *testing.T) {
	ok := AppendFrame(AppendFrame(BeginBundle(nil), []byte("aa")), []byte("bb"))
	nop := func([]byte) error { return nil }

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", ok[:3]},
		{"plain message", binary.LittleEndian.AppendUint32(nil, 0x48505831)},
		{"frame header truncated", ok[:len(ok)-3-FrameHeaderSize]},
		{"frame payload truncated", ok[:len(ok)-1]},
		{"trailing garbage", append(append([]byte(nil), ok...), 0xff)},
	} {
		if err := ForEachFrame(tc.b, nop); err == nil {
			t.Errorf("%s: ForEachFrame accepted a malformed bundle", tc.name)
		}
		if tc.name != "frame header truncated" && tc.name != "frame payload truncated" && tc.name != "trailing garbage" {
			if IsBundle(tc.b) {
				t.Errorf("%s: IsBundle = true", tc.name)
			}
		}
	}

	// A count claiming more frames than the bytes hold must error, not scan
	// past the end.
	over := append([]byte(nil), ok...)
	binary.LittleEndian.PutUint32(over[4:], 100)
	if err := ForEachFrame(over, nop); err == nil {
		t.Error("overstated frame count accepted")
	}
}

func TestGetBufPutBuf(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 1 << 20} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d) has len %d", n, len(b))
		}
		for i := range b {
			b[i] = byte(i)
		}
		PutBuf(b)
	}
	// A pooled buffer must come back with its class capacity so in-need
	// appends never reallocate.
	b := GetBuf(100)
	if cap(b) != 256 {
		t.Fatalf("GetBuf(100) cap = %d, want class cap 256", cap(b))
	}
	PutBuf(b)
	// Oversize buffers bypass the pool entirely.
	big := GetBuf(poolClasses[len(poolClasses)-1] + 1)
	if cap(big) != len(big) {
		t.Fatalf("oversize GetBuf got cap %d, want %d", cap(big), len(big))
	}
	PutBuf(big) // must not panic
}

// TestAppendFrameHeader verifies the in-place-encode variant produces the
// same bundle as AppendFrame when the caller appends the payload itself.
func TestAppendFrameHeader(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, []byte("three33")}
	viaCopy := BeginBundle(nil)
	viaHeader := BeginBundle(nil)
	for _, p := range payloads {
		viaCopy = AppendFrame(viaCopy, p)
		viaHeader = append(AppendFrameHeader(viaHeader, len(p)), p...)
	}
	if !bytes.Equal(viaCopy, viaHeader) {
		t.Fatalf("bundles differ:\n copy   %x\n header %x", viaCopy, viaHeader)
	}
	if got := BundleFrameCount(viaHeader); got != len(payloads) {
		t.Fatalf("frame count = %d, want %d", got, len(payloads))
	}
	var seen int
	if err := ForEachFrame(viaHeader, func(frame []byte) error {
		if !bytes.Equal(frame, payloads[seen]) {
			t.Fatalf("frame %d = %q, want %q", seen, frame, payloads[seen])
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMissesCountAllocations: a class's miss count moves when GetBuf had
// to allocate and only then, and an oversize request belongs to no class.
func TestPoolMissesCountAllocations(t *testing.T) {
	const class = 4 << 20
	last := len(poolClasses) - 1
	if poolClasses[last] != class {
		t.Fatalf("largest class is %d", poolClasses[last])
	}
	missesOf := func() uint64 {
		ms := PoolMisses()
		if len(ms) != len(poolClasses) || ms[last].Class != class {
			t.Fatalf("PoolMisses() = %+v", ms)
		}
		return ms[last].Misses
	}
	// sync.Pool may drop a Put (it does so at random under the race
	// detector), so a Get after a Put usually, not always, hits.
	hits := 0
	for i := 0; i < 20; i++ {
		PutBuf(GetBuf(class - 1))
		before := missesOf()
		b := GetBuf(class/2 + 1)
		switch d := missesOf() - before; {
		case d > 1:
			t.Fatalf("one GetBuf counted %d misses", d)
		case d == 0:
			hits++
		}
		if cap(b) != class {
			t.Fatalf("cap %d", cap(b))
		}
		PutBuf(b)
	}
	if hits == 0 {
		t.Fatal("20 Get-after-Put cycles never hit the pool")
	}
	before := PoolMisses()
	_ = GetBuf(class + 1)
	for i, m := range PoolMisses() {
		if m != before[i] {
			t.Fatalf("an oversize request moved class %d's count", m.Class)
		}
	}
}
