package parcelport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hpxgo/internal/serialization"
)

// The header message (§3.1/§3.2.1) is the protocol message a parcelport
// generates per HPX message. It carries the tag for the follow-up messages,
// the size of the non-zero-copy chunk, and the existence and size of the
// transmission chunk — and it piggybacks those chunks when they fit under
// the maximum header size (the zero-copy serialization threshold).

// headerFixedSize is the size of the fixed header fields.
const headerFixedSize = 4 + 8 + 8 + 4 + 1

const (
	flagPiggyNZC   = 1 << 0
	flagPiggyTrans = 1 << 1
)

// Header is a decoded header message.
type Header struct {
	BaseTag   uint32 // tag of the first follow-up message
	NZCSize   uint64 // size of the non-zero-copy chunk
	TransSize uint64 // size of the transmission chunk (0 = none)
	NumZC     uint32 // number of zero-copy chunks
	NZC       []byte // piggybacked non-zero-copy chunk, or nil
	Trans     []byte // piggybacked transmission chunk, or nil
}

// PiggyNZC reports whether the non-zero-copy chunk rode the header.
func (h *Header) PiggyNZC() bool { return h.NZC != nil }

// PiggyTrans reports whether the transmission chunk rode the header (or was
// absent entirely).
func (h *Header) PiggyTrans() bool { return h.Trans != nil || h.TransSize == 0 }

// Complete reports whether the whole message rode the header: no follow-up
// message will arrive for it.
func (h *Header) Complete() bool { return h.NumZC == 0 && h.PiggyNZC() && h.PiggyTrans() }

// PlanHeader decides which chunks of a message piggyback on its header and
// returns the resulting header size. Piggybacking is greedy — transmission
// chunk first, then the non-zero-copy chunk — subject to maxSize.
// allowPiggyTrans=false reproduces the original MPI parcelport (§3.1), which
// could only piggyback the non-zero-copy chunk.
func PlanHeader(nzcLen, transLen, maxSize int, allowPiggyTrans bool) (size int, piggyNZC, piggyTrans bool) {
	size = headerFixedSize
	if allowPiggyTrans && transLen > 0 && size+transLen <= maxSize {
		piggyTrans = true
		size += transLen
	}
	if size+nzcLen <= maxSize {
		piggyNZC = true
		size += nzcLen
	}
	return size, piggyNZC, piggyTrans
}

// PlanComplete reports whether a message with these chunk sizes rides its
// header whole: no zero-copy chunk, and the non-zero-copy and transmission
// chunks both piggyback under maxSize. Such a message needs no follow-up
// message and no tags — the sending side of Header.Complete.
func PlanComplete(nzcLen, transLen, numZC, maxSize int) bool {
	if numZC > 0 {
		return false
	}
	_, piggyNZC, piggyTrans := PlanHeader(nzcLen, transLen, maxSize, true)
	return piggyNZC && (piggyTrans || transLen == 0)
}

// AppendFollowUps appends m's follow-up chunks to segs in the order every
// receiver (Recv) expects them: the transmission chunk unless it rode the
// header or is empty, the non-zero-copy chunk unless it rode the header,
// then each zero-copy chunk.
func AppendFollowUps(segs [][]byte, m *serialization.Message, piggyNZC, piggyTrans bool) [][]byte {
	if len(m.Transmission) > 0 && !piggyTrans {
		segs = append(segs, m.Transmission)
	}
	if !piggyNZC {
		segs = append(segs, m.NonZeroCopy)
	}
	return append(segs, m.ZeroCopy...)
}

// EncodeHeader assembles a header message for m into buf and returns the
// number of bytes written plus which chunks were piggybacked (per
// PlanHeader). buf must hold the planned header size; maxSize must be at
// least headerFixedSize.
func EncodeHeader(buf []byte, baseTag uint32, m *serialization.Message, maxSize int, allowPiggyTrans bool) (n int, piggyNZC, piggyTrans bool, err error) {
	if maxSize < headerFixedSize {
		return 0, false, false, fmt.Errorf("parcelport: header max size %d below fixed size %d", maxSize, headerFixedSize)
	}
	var need int
	need, piggyNZC, piggyTrans = PlanHeader(len(m.NonZeroCopy), len(m.Transmission), maxSize, allowPiggyTrans)
	if len(buf) < need {
		return 0, false, false, fmt.Errorf("parcelport: header buffer %d smaller than planned size %d", len(buf), need)
	}
	var flags byte
	if piggyTrans {
		flags |= flagPiggyTrans
	}
	if piggyNZC {
		flags |= flagPiggyNZC
	}
	binary.LittleEndian.PutUint32(buf[0:], baseTag)
	binary.LittleEndian.PutUint64(buf[4:], uint64(len(m.NonZeroCopy)))
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(m.Transmission)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(m.ZeroCopy)))
	buf[24] = flags
	off := headerFixedSize
	if flags&flagPiggyTrans != 0 {
		off += copy(buf[off:], m.Transmission)
	}
	if flags&flagPiggyNZC != 0 {
		off += copy(buf[off:], m.NonZeroCopy)
	}
	return off, piggyNZC, piggyTrans, nil
}

// ParcelHeaderSize is the size of the complete header message AppendParcelHeader
// writes for p.
func ParcelHeaderSize(p *serialization.Parcel) int {
	return headerFixedSize + serialization.EncodedSizeInline(p)
}

// AppendParcelHeader appends the complete header message (BaseTag 0) of the
// single-parcel message carrying p with every argument inline, serializing
// the parcel straight behind the fixed fields. The bytes equal
// EncodeHeader(buf, 0, EncodeOne(p, t), maxSize, true) whenever no argument
// reaches t and the header fits maxSize, without the Message and its scratch
// chunk. The caller guarantees capacity for ParcelHeaderSize(p) bytes.
func AppendParcelHeader(dst []byte, p *serialization.Parcel) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, headerFixedSize)...)
	dst[start+24] = flagPiggyNZC
	dst = serialization.AppendEncodeInline(dst, p)
	binary.LittleEndian.PutUint64(dst[start+4:], uint64(len(dst)-start-headerFixedSize))
	return dst
}

// ErrHeader reports a malformed header message.
var ErrHeader = errors.New("parcelport: malformed header message")

// DecodeHeader parses a header message. Piggybacked chunks alias data.
func DecodeHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < headerFixedSize {
		return h, fmt.Errorf("%w: %d bytes", ErrHeader, len(data))
	}
	h.BaseTag = binary.LittleEndian.Uint32(data[0:])
	h.NZCSize = binary.LittleEndian.Uint64(data[4:])
	h.TransSize = binary.LittleEndian.Uint64(data[12:])
	h.NumZC = binary.LittleEndian.Uint32(data[20:])
	flags := data[24]
	off := uint64(headerFixedSize)
	// Subtraction-form bounds checks: off <= len(data) always holds, so
	// `size > len-off` cannot overflow the way `off+size > len` can when a
	// corrupt header carries a size near MaxUint64.
	if flags&flagPiggyTrans != 0 {
		if h.TransSize > uint64(len(data))-off {
			return h, fmt.Errorf("%w: truncated piggybacked transmission chunk", ErrHeader)
		}
		h.Trans = data[off : off+h.TransSize]
		off += h.TransSize
	}
	if flags&flagPiggyNZC != 0 {
		if h.NZCSize > uint64(len(data))-off {
			return h, fmt.Errorf("%w: truncated piggybacked non-zero-copy chunk", ErrHeader)
		}
		h.NZC = data[off : off+h.NZCSize]
	}
	return h, nil
}
