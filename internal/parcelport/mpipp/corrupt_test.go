package mpipp

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"hpxgo/internal/fabric"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// transChunk builds a transmission chunk from (index, size) entries.
func transChunk(entries ...[2]uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
		b = binary.LittleEndian.AppendUint64(b, e[1])
	}
	return b
}

// releaseProbe is an inner owner that counts its releases.
type releaseProbe struct{ n atomic.Int32 }

func (p *releaseProbe) Retain()  {}
func (p *releaseProbe) Release() { p.n.Add(1) }

// TestCorruptTransmissionChunkFailsConnection: a transmission chunk that
// announces an absurd chunk size (which used to reach make and panic the
// polling worker) or lists a chunk index twice (which used to leave another
// chunk unsized) fails the receiver connection before anything is allocated
// for it, releases the connection's buffer owner exactly once, and leaves
// the parcelport delivering.
func TestCorruptTransmissionChunkFailsConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trans []byte
		numZC int
	}{
		{"size 1<<62", transChunk([2]uint64{0, 1 << 62}), 1},
		{"size just above the bound", transChunk([2]uint64{0, serialization.MaxChunkSize + 1}), 1},
		{"duplicate index", transChunk([2]uint64{0, 16}, [2]uint64{0, 16}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{}, fabric.Config{LatencyNs: 200})

			// The connection itself, with a watched owner.
			probe := &releaseProbe{}
			owner := parcelport.GetRecvBufs()
			owner.SetInner(probe)
			nzc := []byte("metadata")
			c := newReceiverConnection(r.pps[1], 0, parcelport.Header{
				BaseTag: 1 << 20, NZCSize: uint64(len(nzc)), TransSize: uint64(len(tc.trans)),
				NumZC: uint32(tc.numZC), NZC: nzc, Trans: tc.trans,
			}, owner)
			if !c.finished() || c.owner != nil || c.zcBufs != nil {
				t.Fatalf("connection survived: done=%v owner=%v zcBufs=%d", c.finished(), c.owner, len(c.zcBufs))
			}
			if got := probe.n.Load(); got != 1 {
				t.Fatalf("buffer owner released %d times, want 1", got)
			}

			// And over the wire: the corrupt message is dropped, the one
			// behind it arrives.
			zc := make([][]byte, tc.numZC)
			for i := range zc {
				zc[i] = make([]byte, 16)
			}
			good, _ := msgWith(t, 64, 9000)
			bad := &serialization.Message{NonZeroCopy: good.NonZeroCopy, Transmission: tc.trans, ZeroCopy: zc}
			r.pps[0].Send(1, bad)
			good2, want := msgWith(t, 64, 9000)
			r.pps[0].Send(1, good2)
			r.pump(t, 20*time.Second, r.recvCount(1))
			for i := 0; i < 200; i++ { // room for a wrongly accepted message to surface
				r.pps[0].BackgroundWork(0)
				r.pps[1].BackgroundWork(0)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(r.received[1]) != 1 {
				t.Fatalf("%d messages delivered, want only the intact one", len(r.received[1]))
			}
			checkRoundTrip(t, r.received[1][0], want)
		})
	}
}
