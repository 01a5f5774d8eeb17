package lci

import (
	"testing"

	"hpxgo/internal/fabric"
)

func BenchmarkCompQueuePushPop(b *testing.B) {
	q := NewCompQueue(1024)
	req := Request{Type: CompRecv, Rank: 1, Tag: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(req)
		q.Pop()
	}
}

func BenchmarkSynchronizerSignalTest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSynchronizer(1)
		s.signal(Request{})
		if !s.Test() {
			b.Fatal("not triggered")
		}
	}
}

// benchPair builds a 2-node device pair on a zero-latency fabric.
func benchPair(b *testing.B) (*Device, *Device) {
	b.Helper()
	net, err := fabric.NewNetwork(fabric.Config{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	return NewDevice(net.Device(0), Config{}, nil), NewDevice(net.Device(1), Config{}, nil)
}

func BenchmarkMediumSendRecv(b *testing.B) {
	a, peer := benchPair(b)
	cq := NewCompQueue(1024)
	payload := make([]byte, 64)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := uint32(i%1000 + 1)
		if err := peer.Recvm(0, tag, buf, cq, nil); err != nil {
			b.Fatal(err)
		}
		if err := a.Sendm(1, tag, payload, nil, nil); err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := cq.Pop(); ok {
				break
			}
			peer.Progress()
		}
	}
}

func BenchmarkDynamicPut(b *testing.B) {
	a, peer := benchPair(b)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Putd(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := peer.PutCQ().Pop(); ok {
				break
			}
			peer.Progress()
		}
	}
}

func BenchmarkLongRendezvous16K(b *testing.B) {
	a, peer := benchPair(b)
	cq := NewCompQueue(1024)
	payload := make([]byte, 16*1024)
	buf := make([]byte, 16*1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := uint32(i%1000 + 1)
		if err := peer.Recvl(0, tag, buf, cq, nil); err != nil {
			b.Fatal(err)
		}
		if err := a.Sendl(1, tag, payload, nil, nil); err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := cq.Pop(); ok {
				break
			}
			a.Progress()
			peer.Progress()
		}
	}
}
