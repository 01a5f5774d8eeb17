package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrips(t *testing.T) {
	if v, err := ToU64(U64(1 << 60)); err != nil || v != 1<<60 {
		t.Fatalf("u64: %v %v", v, err)
	}
	if v, err := ToF64(F64(-3.25)); err != nil || v != -3.25 {
		t.Fatalf("f64: %v %v", v, err)
	}
}

func TestScalarErrors(t *testing.T) {
	if _, err := ToU64([]byte{1, 2, 3}); err == nil {
		t.Fatal("short u64")
	}
	if _, err := ToF64(nil); err == nil {
		t.Fatal("nil f64")
	}
	if _, err := ToU32s([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged u32s")
	}
	if _, err := ToF64s([]byte{1}); err == nil {
		t.Fatal("ragged f64s")
	}
}

func TestSliceRoundTripProperty(t *testing.T) {
	fu := func(vs []uint32) bool {
		got, err := ToU32s(U32s(vs))
		if err != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fu, nil); err != nil {
		t.Fatal(err)
	}
	ff := func(vs []float64) bool {
		got, err := ToF64s(F64s(vs))
		if err != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] && !(math.IsNaN(got[i]) && math.IsNaN(vs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(ff, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFolds(t *testing.T) {
	acc := [][]byte{F64(1.5)}
	out := SumF64Fold(acc, [][]byte{F64(2.25)})
	if v, _ := ToF64(out[0]); v != 3.75 {
		t.Fatalf("f64 fold = %v", v)
	}
	out = SumU64Fold([][]byte{U64(40)}, [][]byte{U64(2)})
	if v, _ := ToU64(out[0]); v != 42 {
		t.Fatalf("u64 fold = %v", v)
	}
}
