// Package wire provides small typed helpers for encoding action arguments
// and results. Parcels carry opaque byte blobs; applications repeatedly
// need the same little-endian scalar and slice encodings, collected here.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// U64 encodes a uint64.
func U64(v uint64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// ToU64 decodes a U64 blob.
func ToU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: u64 blob has %d bytes", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// F64 encodes a float64.
func F64(v float64) []byte { return U64(math.Float64bits(v)) }

// ToF64 decodes an F64 blob.
func ToF64(b []byte) (float64, error) {
	u, err := ToU64(b)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// U32s encodes a uint32 slice.
func U32s(vs []uint32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// ToU32s decodes a U32s blob.
func ToU32s(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("wire: u32 slice blob has %d bytes", len(b))
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// F64s encodes a float64 slice.
func F64s(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// ToF64s decodes an F64s blob.
func ToF64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("wire: f64 slice blob has %d bytes", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// ChecksumSeed is the FNV-1a 32-bit offset basis, the starting value for
// Checksum32Add chains.
const ChecksumSeed uint32 = 2166136261

// Checksum32 returns the FNV-1a hash of b: the integrity checksum the fabric
// stamps on packet headers to detect payload corruption.
func Checksum32(b []byte) uint32 { return Checksum32Add(ChecksumSeed, b) }

// Checksum32Add folds b into a running Checksum32 value, so multi-segment
// packets (metadata + payload) hash without concatenation.
func Checksum32Add(h uint32, b []byte) uint32 {
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// SumF64Fold is the float64-sum fold for Runtime.Reduce: both blobs must be
// single F64 results.
func SumF64Fold(acc, partial [][]byte) [][]byte {
	a, _ := ToF64(acc[0])
	p, _ := ToF64(partial[0])
	return [][]byte{F64(a + p)}
}

// SumU64Fold is the uint64-sum fold for Runtime.Reduce.
func SumU64Fold(acc, partial [][]byte) [][]byte {
	a, _ := ToU64(acc[0])
	p, _ := ToU64(partial[0])
	return [][]byte{U64(a + p)}
}
