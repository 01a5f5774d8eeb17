package serialization

import "testing"

func benchParcels(zcSize int) []*Parcel {
	args := [][]byte{make([]byte, 32), make([]byte, 64)}
	if zcSize > 0 {
		args = append(args, make([]byte, zcSize))
	}
	return []*Parcel{{Source: 0, Dest: 1, Action: 3, ContID: 9, Args: args}}
}

func BenchmarkEncodeSmall(b *testing.B) {
	ps := benchParcels(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(ps, 0)
	}
}

func BenchmarkEncodeZeroCopy16K(b *testing.B) {
	ps := benchParcels(16 * 1024)
	b.SetBytes(16 * 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(ps, 0)
	}
}

func BenchmarkDecodeSmall(b *testing.B) {
	m := Encode(benchParcels(0), 0)
	var buf DecodeBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeZeroCopy16K(b *testing.B) {
	m := Encode(benchParcels(16*1024), 0)
	b.SetBytes(16 * 1024)
	var buf DecodeBuf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregatedEncode100Parcels(b *testing.B) {
	var ps []*Parcel
	for i := 0; i < 100; i++ {
		ps = append(ps, benchParcels(0)[0])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(ps, 0)
	}
}
