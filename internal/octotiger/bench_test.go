package octotiger

import "testing"

func BenchmarkMortonEncodeDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := MortonEncode(uint32(i), uint32(i>>2), uint32(i>>4))
		MortonDecode(m)
	}
}

func BenchmarkBuildTreeLevel4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTree(Params{MaxLevel: 4, MinLevel: 2, RefineFraction: 0.5}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfInteraction(b *testing.B) {
	p := Params{SubgridSize: 8, Fields: 4}
	p.fillDefaults()
	st := newLeafState(p, &Leaf{Morton: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.selfInteraction(p)
	}
}

func BenchmarkExtractBoundary(b *testing.B) {
	p := Params{SubgridSize: 8, Fields: 4}
	p.fillDefaults()
	st := newLeafState(p, &Leaf{Morton: 1})
	faces := faceTable(p.SubgridSize)
	out := make([]byte, p.Fields*p.SubgridSize*p.SubgridSize*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.extractBoundary(faces[i%6], out)
	}
}

func BenchmarkApplyBoundary(b *testing.B) {
	p := Params{SubgridSize: 8, Fields: 4}
	p.fillDefaults()
	faces := faceTable(p.SubgridSize)
	src := newLeafState(p, &Leaf{Morton: 2})
	src.computeMoments(momentWeights(p.SubgridSize))
	src.prepareReplies(&faces)
	st := newLeafState(p, &Leaf{Morton: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % 6
		if err := st.applyBoundary(p, &faces, f, src.replies[f^1][:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeMoments(b *testing.B) {
	p := Params{SubgridSize: 8, Fields: 4}
	p.fillDefaults()
	st := newLeafState(p, &Leaf{Morton: 1})
	weights := momentWeights(p.SubgridSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.computeMoments(weights)
	}
}
