package parcelport

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

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

// rawHeader encodes h field by field, sizes as given, so a test can put on
// the wire what no real message produces.
func rawHeader(h Header) []byte {
	b := binary.LittleEndian.AppendUint32(nil, h.BaseTag)
	b = binary.LittleEndian.AppendUint64(b, h.NZCSize)
	b = binary.LittleEndian.AppendUint64(b, h.TransSize)
	b = binary.LittleEndian.AppendUint32(b, h.NumZC)
	var flags byte
	if h.Trans != nil {
		flags |= flagPiggyTrans
	}
	if h.NZC != nil {
		flags |= flagPiggyNZC
	}
	b = append(append(append(b, flags), h.Trans...), h.NZC...)
	return b
}

// releaseProbe is an inner owner that counts its releases.
type releaseProbe struct{ n atomic.Int32 }

func (p *releaseProbe) Retain()  {}
func (p *releaseProbe) Release() { p.n.Add(1) }

// watchedOwner returns a fresh owner whose final release the probe counts.
func watchedOwner() (*RecvBufs, *releaseProbe) {
	probe := &releaseProbe{}
	owner := GetRecvBufs()
	owner.SetInner(probe)
	return owner, probe
}

// corruptRows are headers a receiver must refuse: the transmission-chunk
// rows carry their chunk in trans, the others announce sizes no receiver may
// allocate.
var corruptRows = []struct {
	name  string
	h     Header
	trans []byte
}{
	{name: "size 1<<62", h: Header{NumZC: 1}, trans: transChunk([2]uint64{0, 1 << 62})},
	{name: "size just above the bound", h: Header{NumZC: 1}, trans: transChunk([2]uint64{0, serialization.MaxChunkSize + 1})},
	{name: "duplicate index", h: Header{NumZC: 2}, trans: transChunk([2]uint64{0, 16}, [2]uint64{0, 16})},
	{name: "zero-copy count disagrees", h: Header{NumZC: 2}, trans: transChunk([2]uint64{0, 16})},
	{name: "nzc size above the bound", h: Header{NZCSize: serialization.MaxChunkSize + 1}},
	{name: "trans size 1<<62", h: Header{TransSize: 1 << 62, NZC: []byte{}}},
	{name: "trans size above the bound", h: Header{TransSize: serialization.MaxChunkSize + 1, NZC: []byte{}}},
	{name: "zero-copy count above the bound", h: Header{NumZC: maxZeroCopyChunks + 1, NZC: []byte{}}},
}

// TestRecvRejectsCorruptInput: every corrupt row fails before the receiver
// draws a buffer for what it announced — a size that used to reach make and
// panic the progress path, or an index listed twice that used to leave
// another chunk unsized — and Fail releases the owner exactly once. A
// transmission chunk is refused both when it rode the header (nothing drawn
// at all) and when it arrived as a follow-up (only its own buffer drawn).
func TestRecvRejectsCorruptInput(t *testing.T) {
	nzc := []byte("metadata")
	for _, row := range corruptRows {
		piggy := []bool{true}
		if row.trans != nil {
			piggy = append(piggy, false)
		}
		for _, piggyTrans := range piggy {
			name := row.name
			if !piggyTrans {
				name += "/as follow-up"
			}
			t.Run(name, func(t *testing.T) {
				h := row.h
				if row.trans != nil {
					h.NZCSize, h.NZC, h.TransSize = uint64(len(nzc)), nzc, uint64(len(row.trans))
					if piggyTrans {
						h.Trans = row.trans
					}
				}
				owner, probe := watchedOwner()
				var rx Recv
				err := rx.Start(h, owner)
				wantBufs := 0
				if err == nil && !piggyTrans {
					buf := rx.Next()
					if len(buf) != len(row.trans) {
						t.Fatalf("first follow-up buffer %d bytes, want the %d-byte transmission chunk", len(buf), len(row.trans))
					}
					copy(buf, row.trans)
					err = rx.Done()
					wantBufs = 1
				}
				if err == nil {
					t.Fatal("receiver accepted corrupt input")
				}
				if got := len(owner.bufs); got != wantBufs {
					t.Fatalf("%d buffers drawn before the failure, want %d", got, wantBufs)
				}
				rx.Fail()
				rx.Fail()
				if got := probe.n.Load(); got != 1 {
					t.Fatalf("owner released %d times, want 1", got)
				}
			})
		}
	}
}
