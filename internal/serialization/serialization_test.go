package serialization

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// decode is DecodeInto with a fresh buffer, for tests that decode once.
func decode(m *Message) ([]Parcel, error) {
	return DecodeInto(new(DecodeBuf), m)
}

func TestEncodeDecodeSmallArgs(t *testing.T) {
	p := &Parcel{Source: 1, Dest: 2, Action: 77, ContID: 99, Args: [][]byte{[]byte("a"), []byte("bb")}}
	m := Encode([]*Parcel{p}, 0)
	if m.Transmission != nil || len(m.ZeroCopy) != 0 {
		t.Fatal("small args must not produce zero-copy chunks")
	}
	got, err := decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(&got[0], p) {
		t.Fatalf("round trip mismatch: %+v", got[0])
	}
}

func TestEncodeDecodeZeroCopy(t *testing.T) {
	big := make([]byte, DefaultZeroCopyThreshold)
	for i := range big {
		big[i] = byte(i)
	}
	p := &Parcel{Dest: 1, Action: 5, Args: [][]byte{[]byte("small"), big, []byte("tail")}}
	m := Encode([]*Parcel{p}, 0)
	if len(m.ZeroCopy) != 1 {
		t.Fatalf("ZeroCopy chunks = %d, want 1", len(m.ZeroCopy))
	}
	if m.Transmission == nil {
		t.Fatal("transmission chunk missing despite zero-copy chunk")
	}
	if &m.ZeroCopy[0][0] != &big[0] {
		t.Fatal("zero-copy chunk was copied")
	}
	got, err := decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].Args[1], big) {
		t.Fatal("big arg corrupted")
	}
	if &got[0].Args[1][0] != &big[0] {
		t.Fatal("decode copied the zero-copy chunk")
	}
}

func TestThresholdBoundary(t *testing.T) {
	at := make([]byte, 100)
	below := make([]byte, 99)
	p := &Parcel{Args: [][]byte{at, below}}
	m := Encode([]*Parcel{p}, 100)
	if len(m.ZeroCopy) != 1 {
		t.Fatalf("args at the threshold must be zero-copy; got %d chunks", len(m.ZeroCopy))
	}
}

func TestMultipleParcelsAggregated(t *testing.T) {
	var ps []*Parcel
	for i := 0; i < 10; i++ {
		ps = append(ps, &Parcel{
			Source: i, Dest: 3, Action: uint32(i), ContID: uint64(i * 2),
			Args: [][]byte{[]byte{byte(i)}, make([]byte, 9000)},
		})
	}
	m := Encode(ps, 0)
	if len(m.ZeroCopy) != 10 {
		t.Fatalf("ZeroCopy = %d, want 10", len(m.ZeroCopy))
	}
	got, err := decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("decoded %d parcels", len(got))
	}
	for i, p := range got {
		if p.Action != uint32(i) || p.Source != i || p.ContID != uint64(i*2) {
			t.Fatalf("parcel %d metadata wrong: %+v", i, p)
		}
	}
}

func TestEmptyArgsAndNoArgs(t *testing.T) {
	ps := []*Parcel{
		{Action: 1},                           // no args
		{Action: 2, Args: [][]byte{{}}},       // one empty arg
		{Action: 3, Args: [][]byte{nil, {1}}}, // nil arg
	}
	m := Encode(ps, 0)
	got, err := decode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Args) != 0 {
		t.Fatal("parcel 0 should have no args")
	}
	if len(got[1].Args[0]) != 0 || len(got[2].Args[0]) != 0 {
		t.Fatal("empty args corrupted")
	}
	if got[2].Args[1][0] != 1 {
		t.Fatal("arg after nil corrupted")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	m := &Message{NonZeroCopy: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	if _, err := decode(m); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := &Parcel{Action: 1, Args: [][]byte{[]byte("hello world")}}
	m := Encode([]*Parcel{p}, 0)
	for cut := 1; cut < len(m.NonZeroCopy); cut += 3 {
		trunc := &Message{NonZeroCopy: m.NonZeroCopy[:cut]}
		if _, err := decode(trunc); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(m.NonZeroCopy))
		}
	}
}

func TestDecodeChunkMismatch(t *testing.T) {
	big := make([]byte, DefaultZeroCopyThreshold)
	m := Encode([]*Parcel{{Args: [][]byte{big}}}, 0)

	// Wrong chunk length.
	bad := &Message{NonZeroCopy: m.NonZeroCopy, Transmission: m.Transmission, ZeroCopy: [][]byte{big[:100]}}
	if _, err := decode(bad); !errors.Is(err, ErrChunk) {
		t.Fatalf("err = %v, want ErrChunk", err)
	}
	// Missing chunk entirely (decode path without transmission validation).
	bad2 := &Message{NonZeroCopy: m.NonZeroCopy}
	if _, err := decode(bad2); err == nil {
		t.Fatal("decode with missing zero-copy chunk succeeded")
	}
	// Chunk-count mismatch in transmission chunk.
	bad3 := &Message{NonZeroCopy: m.NonZeroCopy, Transmission: m.Transmission, ZeroCopy: [][]byte{big, big}}
	if _, err := decode(bad3); !errors.Is(err, ErrChunk) {
		t.Fatalf("err = %v, want ErrChunk", err)
	}
}

func TestMessageDoneOnce(t *testing.T) {
	calls := 0
	m := &Message{OnSent: func() { calls++ }}
	m.Done()
	m.Done()
	if calls != 1 {
		t.Fatalf("OnSent called %d times", calls)
	}
	(&Message{}).Done() // nil-safe
}

// TestRoundTripProperty exercises Encode/DecodeInto over randomly generated
// parcel batches, including arguments straddling the zero-copy threshold.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() []*Parcel {
		n := 1 + rng.Intn(5)
		ps := make([]*Parcel, n)
		for i := range ps {
			na := rng.Intn(4)
			args := make([][]byte, na)
			for j := range args {
				var sz int
				switch rng.Intn(3) {
				case 0:
					sz = rng.Intn(32)
				case 1:
					sz = DefaultZeroCopyThreshold - 1
				default:
					sz = DefaultZeroCopyThreshold + rng.Intn(5000)
				}
				a := make([]byte, sz)
				rng.Read(a)
				args[j] = a
			}
			ps[i] = &Parcel{
				Source: rng.Intn(64), Dest: rng.Intn(64),
				Action: rng.Uint32(), ContID: rng.Uint64(), Args: args,
			}
		}
		return ps
	}
	for iter := 0; iter < 200; iter++ {
		ps := gen()
		got, err := decode(Encode(ps, 0))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(got) != len(ps) {
			t.Fatalf("iter %d: count %d != %d", iter, len(got), len(ps))
		}
		for i := range ps {
			if got[i].Action != ps[i].Action || got[i].Source != ps[i].Source ||
				got[i].Dest != ps[i].Dest || got[i].ContID != ps[i].ContID {
				t.Fatalf("iter %d parcel %d metadata mismatch", iter, i)
			}
			if len(got[i].Args) != len(ps[i].Args) {
				t.Fatalf("iter %d parcel %d arg count", iter, i)
			}
			for j := range ps[i].Args {
				if !bytes.Equal(got[i].Args[j], ps[i].Args[j]) {
					t.Fatalf("iter %d parcel %d arg %d mismatch", iter, i, j)
				}
			}
		}
	}
}

// TestInlineArgQuick drives the encoder with quick-generated inline args.
func TestInlineArgQuick(t *testing.T) {
	f := func(a, b []byte, action uint32, cont uint64) bool {
		if len(a) >= DefaultZeroCopyThreshold || len(b) >= DefaultZeroCopyThreshold {
			return true // only inline args in this property
		}
		p := &Parcel{Action: action, ContID: cont, Args: [][]byte{a, b}}
		got, err := decode(Encode([]*Parcel{p}, 0))
		if err != nil || len(got) != 1 {
			return false
		}
		return bytes.Equal(got[0].Args[0], a) && bytes.Equal(got[0].Args[1], b) &&
			got[0].Action == action && got[0].ContID == cont
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodeInline pins the direct-encode helper against EncodeOne:
// identical bytes, exact size accounting, and append-in-place semantics.
func TestAppendEncodeInline(t *testing.T) {
	parcels := []*Parcel{
		{Source: 1, Dest: 2, Action: 3, Args: [][]byte{[]byte("hello"), nil}},
		{Source: -1, Dest: 0, Action: 0xffffffff, ContID: 1 << 40},
		{Args: [][]byte{make([]byte, 300)}},
	}
	for i, p := range parcels {
		ref := EncodeOne(p, 1<<30) // threshold above every arg: all inline
		need := EncodedSizeInline(p)
		if need != len(ref.NonZeroCopy) {
			t.Fatalf("parcel %d: EncodedSizeInline = %d, EncodeOne produced %d bytes",
				i, need, len(ref.NonZeroCopy))
		}
		prefix := []byte{0xaa, 0xbb}
		got := AppendEncodeInline(append([]byte(nil), prefix...), p)
		if len(got) != len(prefix)+need {
			t.Fatalf("parcel %d: appended %d bytes, want %d", i, len(got)-len(prefix), need)
		}
		if !bytes.Equal(got[len(prefix):], ref.NonZeroCopy) {
			t.Fatalf("parcel %d: direct encoding differs from EncodeOne", i)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("parcel %d: prefix clobbered", i)
		}
		decoded, err := decode(&Message{NonZeroCopy: got[len(prefix):]})
		if err != nil || len(decoded) != 1 {
			t.Fatalf("parcel %d: decode: %v (%d parcels)", i, err, len(decoded))
		}
		if decoded[0].Action != p.Action || decoded[0].ContID != p.ContID {
			t.Fatalf("parcel %d: round trip %+v != %+v", i, decoded[0], p)
		}
		ref.Recycle()
	}
}
