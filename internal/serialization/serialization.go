// Package serialization implements the HPX message model described in §2.2
// of the paper. A set of parcels bound for the same destination locality is
// serialized into an "HPX message" consisting of:
//
//   - one non-zero-copy chunk holding parcel metadata and all small
//     arguments,
//   - zero or more zero-copy chunks, one per large argument (an argument is
//     large when it reaches the zero-copy serialization threshold; such
//     arguments are referenced, not copied),
//   - a transmission chunk recording the index and length of the zero-copy
//     arguments, present only when there is at least one zero-copy chunk.
//
// The parcelport layer transfers these chunks; it never inspects parcel
// contents.
package serialization

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"hpxgo/internal/wire"
)

// DefaultZeroCopyThreshold is HPX's default zero-copy serialization
// threshold (bytes); the paper keeps it at 8192 for all experiments.
const DefaultZeroCopyThreshold = 8192

// Parcel is the unit of work the HPX upper layer exchanges: the arguments of
// one action invocation plus routing metadata.
type Parcel struct {
	Source int    // source locality
	Dest   int    // destination locality
	Action uint32 // registered action id
	ContID uint64 // continuation id (0 = fire-and-forget)
	Args   [][]byte
}

// RecvOwner is the refcounted owner of a received message's buffers. The
// transport that produced the message holds the initial reference; every
// consumer that keeps any chunk of the message alive past its callback takes
// one with Retain and drops it with Release. The final Release returns the
// buffers (pooled fabric packets, wire-pool bundle buffers) to their pools.
// *fabric.Packet satisfies it directly.
type RecvOwner interface {
	Retain()
	Release()
}

// Message is a serialized HPX message as passed to the parcelport layer.
type Message struct {
	NonZeroCopy  []byte
	Transmission []byte   // nil when there are no zero-copy chunks
	ZeroCopy     [][]byte // large arguments, referenced without copying

	// Owner, when non-nil on a received message, owns the buffers the chunks
	// alias. The receiver must Release the arrival reference when it is done
	// with every chunk (and Retain first for any use that outlives its
	// callback). A nil Owner means the buffers belong to the GC.
	Owner RecvOwner

	// OnSent, when non-nil, is invoked by the parcelport once the message is
	// fully transferred and its buffers may be reused (the upper layer uses
	// it to return connections to the connection cache).
	OnSent func()

	// RecycleOnSent makes Done recycle the encode scratch after OnSent
	// fires. It expresses the common "recycle and nothing else" completion
	// without the owner allocating a closure per message for it.
	RecycleOnSent bool
}

// Done invokes OnSent exactly once (nil-safe), then recycles the encode
// scratch if the owner requested it via RecycleOnSent.
func (m *Message) Done() {
	if m.OnSent != nil {
		f := m.OnSent
		m.OnSent = nil
		f()
	}
	if m.RecycleOnSent {
		m.RecycleOnSent = false
		m.Recycle()
	}
}

// Recycle returns the pooled encode scratch backing NonZeroCopy to the
// shared buffer pool and nils the field. Only the owner of the message may
// call it, after the transfer locally completed (Done) and nothing aliases
// the chunk anymore — never on received or decoded messages, whose parcels
// alias NonZeroCopy. Idempotent.
func (m *Message) Recycle() {
	if m.NonZeroCopy != nil {
		wire.PutBuf(m.NonZeroCopy)
		m.NonZeroCopy = nil
	}
}

// Aliases reports whether b's backing array lies inside one of the chunks
// decoded arguments point into (NonZeroCopy, ZeroCopy). The receiver uses it
// to tell a result that echoes an argument — which dies with the message's
// buffers — from one the action allocated.
func (m *Message) Aliases(b []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	within := func(c []byte) bool {
		// Unsigned: a b below c wraps to a huge offset.
		return p-uintptr(unsafe.Pointer(unsafe.SliceData(c))) < uintptr(cap(c))
	}
	if within(m.NonZeroCopy) {
		return true
	}
	for _, c := range m.ZeroCopy {
		if within(c) {
			return true
		}
	}
	return false
}

const (
	argInline   byte = 0
	argZeroCopy byte = 1

	messageMagic uint32 = 0x48505831 // "HPX1"
)

// Encode serializes parcels into a Message. Arguments of at least
// zcThreshold bytes become zero-copy chunks (their backing slices are
// aliased, not copied). zcThreshold <= 0 selects the default.
//
// The non-zero-copy chunk is drawn from the shared buffer pool; the owner
// may return it with Message.Recycle once the transfer locally completed.
func Encode(parcels []*Parcel, zcThreshold int) *Message {
	if zcThreshold <= 0 {
		zcThreshold = DefaultZeroCopyThreshold
	}
	m := &Message{}
	// Exact-size the scratch so the appends below never grow it (a grown
	// slice would silently abandon the pooled buffer).
	nzc := buffer{bytes: wire.GetBuf(encodedSize(parcels, zcThreshold))[:0]}
	nzc.u32(messageMagic)
	nzc.u32(uint32(len(parcels)))
	for _, p := range parcels {
		encodeParcel(m, &nzc, p, zcThreshold)
	}
	m.NonZeroCopy = nzc.bytes
	m.buildTransmission()
	return m
}

// EncodeOne is Encode for a single parcel, the send-immediate fast path; it
// avoids materializing a one-element slice.
func EncodeOne(p *Parcel, zcThreshold int) *Message {
	if zcThreshold <= 0 {
		zcThreshold = DefaultZeroCopyThreshold
	}
	m := &Message{}
	nzc := buffer{bytes: wire.GetBuf(8 + parcelEncodedSize(p, zcThreshold))[:0]}
	nzc.u32(messageMagic)
	nzc.u32(1)
	encodeParcel(m, &nzc, p, zcThreshold)
	m.NonZeroCopy = nzc.bytes
	m.buildTransmission()
	return m
}

// inlineAll is a zero-copy threshold no argument reaches: it forces every
// argument inline for the direct-encode helpers below.
const inlineAll = 1 << 62

// EncodedSizeInline returns the wire size of the single-parcel message
// encoding of p with every argument inline (no zero-copy chunks).
func EncodedSizeInline(p *Parcel) int { return 8 + parcelEncodedSize(p, inlineAll) }

// AppendEncodeInline appends the single-parcel message encoding of p to dst
// (every argument inline) and returns the extended slice. It is the
// scratch-free variant of EncodeOne for callers that own a destination
// buffer — the aggregation layer encodes parcels straight into its bundle.
// The caller guarantees capacity for EncodedSizeInline(p) bytes (an append
// must not abandon a pooled backing array) and that no argument was meant to
// travel zero-copy.
func AppendEncodeInline(dst []byte, p *Parcel) []byte {
	nzc := buffer{bytes: dst}
	nzc.u32(messageMagic)
	nzc.u32(1)
	var m Message
	encodeParcel(&m, &nzc, p, inlineAll)
	return nzc.bytes
}

// encodedSize returns the exact non-zero-copy chunk size Encode produces.
func encodedSize(parcels []*Parcel, zcThreshold int) int {
	n := 8 // magic + parcel count
	for _, p := range parcels {
		n += parcelEncodedSize(p, zcThreshold)
	}
	return n
}

// parcelEncodedSize is one parcel's exact non-zero-copy footprint.
func parcelEncodedSize(p *Parcel, zcThreshold int) int {
	n := 24 // action, source, dest, continuation id, arg count
	for _, a := range p.Args {
		n += 5 // kind byte + length/index
		if len(a) < zcThreshold {
			n += len(a)
		}
	}
	return n
}

// encodeParcel appends one parcel to the non-zero-copy chunk, registering
// zero-copy arguments on m.
func encodeParcel(m *Message, nzc *buffer, p *Parcel, zcThreshold int) {
	nzc.u32(p.Action)
	nzc.u32(uint32(int32(p.Source)))
	nzc.u32(uint32(int32(p.Dest)))
	nzc.u64(p.ContID)
	nzc.u32(uint32(len(p.Args)))
	for _, a := range p.Args {
		if len(a) >= zcThreshold {
			nzc.b(argZeroCopy)
			nzc.u32(uint32(len(m.ZeroCopy)))
			m.ZeroCopy = append(m.ZeroCopy, a)
		} else {
			nzc.b(argInline)
			nzc.u32(uint32(len(a)))
			nzc.raw(a)
		}
	}
}

// buildTransmission fills in the transmission chunk from the registered
// zero-copy chunks (nil when there are none).
func (m *Message) buildTransmission() {
	if len(m.ZeroCopy) == 0 {
		return
	}
	var tc buffer
	tc.u32(uint32(len(m.ZeroCopy)))
	for i, zc := range m.ZeroCopy {
		tc.u32(uint32(i))
		tc.u64(uint64(len(zc)))
	}
	m.Transmission = tc.bytes
}

// Errors returned by DecodeInto.
var (
	ErrBadMagic  = errors.New("serialization: bad message magic")
	ErrTruncated = errors.New("serialization: truncated message")
	ErrChunk     = errors.New("serialization: zero-copy chunk mismatch")
)

// DecodeBuf is the reusable backing store of DecodeInto: a parcel slab plus
// one shared argument array all parcels' Args windows point into. A zero
// DecodeBuf is ready to use; capacity grows to the largest bundle decoded
// and is reused afterwards, so steady-state decoding allocates nothing.
type DecodeBuf struct {
	parcels []Parcel
	args    [][]byte
	spans   []int // prefix offsets into args; len(parcels)+1 entries
	frames  int   // bundle frames the last DecodeInto decoded
}

// Frames reports how many aggregation-bundle frames (sub-messages) the last
// DecodeInto on b decoded successfully; 0 when the input was a plain message.
func (b *DecodeBuf) Frames() int { return b.frames }

// DecodeInto reconstructs the parcels of a received transfer into buf's
// reused storage: a plain HPX message, or an aggregation bundle ("HPXB",
// package wire) whose frames are each one HPX message — every frame decodes
// into the same slab, so the caller sees one parcel list per transfer. It
// allocates nothing once buf is warm: the returned slice and every
// Parcel.Args window alias buf and stay valid only until the next DecodeInto
// on the same buf. Argument bytes alias m's chunks (inline args point into
// m.NonZeroCopy, zero-copy args into m.ZeroCopy), so the message buffers
// must outlive any use of the parcels.
//
// A message decodes whole or not at all. A bundle stops at its first corrupt
// frame: the parcels of the frames before it are returned *together with*
// the error, the rest of the bundle is dropped.
func DecodeInto(buf *DecodeBuf, m *Message) ([]Parcel, error) {
	buf.parcels = buf.parcels[:0]
	buf.args = buf.args[:0]
	buf.spans = append(buf.spans[:0], 0)
	buf.frames = 0
	var err error
	if len(m.ZeroCopy) == 0 && wire.IsBundle(m.NonZeroCopy) {
		err = wire.ForEachFrame(m.NonZeroCopy, func(frame []byte) error {
			np, na := len(buf.parcels), len(buf.args)
			if err := buf.appendMessage(frame, nil, nil); err != nil {
				// A frame contributes all of its parcels or none.
				buf.parcels, buf.args, buf.spans = buf.parcels[:np], buf.args[:na], buf.spans[:np+1]
				return err
			}
			buf.frames++
			return nil
		})
	} else if err = buf.appendMessage(m.NonZeroCopy, m.Transmission, m.ZeroCopy); err != nil {
		return nil, err
	}
	if err != nil && len(buf.parcels) == 0 {
		return nil, err
	}
	// Args windows are assigned in a final pass: appending to args may have
	// reallocated its backing array mid-decode, which would have invalidated
	// windows taken earlier.
	for i := range buf.parcels {
		s, e := buf.spans[i], buf.spans[i+1]
		buf.parcels[i].Args = buf.args[s:e:e]
	}
	return buf.parcels, err
}

// appendMessage decodes one HPX message (non-zero-copy chunk nzc, with its
// transmission and zero-copy chunks, if any) onto the end of b's slab. On
// error the slab holds a partial message; the caller discards it.
func (b *DecodeBuf) appendMessage(nzc, trans []byte, zc [][]byte) error {
	r := reader{bytes: nzc}
	magic, err := r.u32()
	if err != nil {
		return err
	}
	if magic != messageMagic {
		return ErrBadMagic
	}
	// Validate the transmission chunk when zero-copy chunks exist.
	if len(zc) > 0 {
		tr := reader{bytes: trans}
		n, err := tr.u32()
		if err != nil {
			return fmt.Errorf("%w (transmission chunk)", err)
		}
		if int(n) != len(zc) {
			return fmt.Errorf("%w: transmission chunk lists %d chunks, message has %d", ErrChunk, n, len(zc))
		}
		for i := 0; i < int(n); i++ {
			idx, err := tr.u32()
			if err != nil {
				return err
			}
			length, err := tr.u64()
			if err != nil {
				return err
			}
			if int(idx) >= len(zc) || uint64(len(zc[idx])) != length {
				return fmt.Errorf("%w: chunk %d length mismatch", ErrChunk, idx)
			}
		}
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	// Plausibility: each parcel needs at least its fixed metadata, so a
	// count implying more bytes than remain is corrupt. This also stops
	// attacker-controlled counts from driving huge allocations.
	const parcelFixedBytes = 4 + 4 + 4 + 8 + 4
	if int64(count)*parcelFixedBytes > int64(r.remaining()) {
		return fmt.Errorf("%w: %d parcels in %d bytes", ErrTruncated, count, r.remaining())
	}
	for pi := uint32(0); pi < count; pi++ {
		b.parcels = append(b.parcels, Parcel{})
		p := &b.parcels[len(b.parcels)-1]
		if p.Action, err = r.u32(); err != nil {
			return err
		}
		var v uint32
		if v, err = r.u32(); err != nil {
			return err
		}
		p.Source = int(int32(v))
		if v, err = r.u32(); err != nil {
			return err
		}
		p.Dest = int(int32(v))
		if p.ContID, err = r.u64(); err != nil {
			return err
		}
		var nargs uint32
		if nargs, err = r.u32(); err != nil {
			return err
		}
		// Each argument costs at least its kind byte plus a length/index.
		if int64(nargs)*5 > int64(r.remaining()) {
			return fmt.Errorf("%w: %d args in %d bytes", ErrTruncated, nargs, r.remaining())
		}
		for ai := uint32(0); ai < nargs; ai++ {
			kind, err := r.b()
			if err != nil {
				return err
			}
			switch kind {
			case argInline:
				n, err := r.u32()
				if err != nil {
					return err
				}
				a, err := r.take(int(n))
				if err != nil {
					return err
				}
				b.args = append(b.args, a)
			case argZeroCopy:
				idx, err := r.u32()
				if err != nil {
					return err
				}
				if int(idx) >= len(zc) {
					return fmt.Errorf("%w: reference to chunk %d of %d", ErrChunk, idx, len(zc))
				}
				b.args = append(b.args, zc[idx])
			default:
				return fmt.Errorf("serialization: unknown argument kind %d", kind)
			}
		}
		b.spans = append(b.spans, len(b.args))
	}
	return nil
}

// MaxChunkSize bounds the length of any single chunk a transport accepts
// from the wire. A receiver allocates what a header announces before the
// payload arrives, so an announced size beyond this is treated as protocol
// corruption (ParseTransmissionSizes, parcelport.Recv).
const MaxChunkSize = 1 << 30

// ParseTransmissionSizes extracts the zero-copy chunk lengths from a
// transmission chunk. The parcelport layer uses it to size and post the
// receives for the follow-up zero-copy messages before their payloads
// arrive, so it rejects what a receiver must not act on: a size above
// MaxChunkSize, and a chunk index listed twice (which would leave another
// chunk unsized).
func ParseTransmissionSizes(tc []byte) ([]uint64, error) {
	r := reader{bytes: tc}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each entry occupies 12 bytes; reject implausible counts.
	if int64(n)*12 > int64(r.remaining()) {
		return nil, fmt.Errorf("%w: %d chunk entries in %d bytes", ErrTruncated, n, r.remaining())
	}
	const unset = ^uint64(0)
	sizes := make([]uint64, n)
	for i := range sizes {
		sizes[i] = unset
	}
	for i := uint32(0); i < n; i++ {
		idx, err := r.u32()
		if err != nil {
			return nil, err
		}
		if idx >= n {
			return nil, fmt.Errorf("%w: chunk index %d out of range %d", ErrChunk, idx, n)
		}
		if sizes[idx] != unset {
			return nil, fmt.Errorf("%w: chunk index %d listed twice", ErrChunk, idx)
		}
		if sizes[idx], err = r.u64(); err != nil {
			return nil, err
		}
		if sizes[idx] > MaxChunkSize {
			return nil, fmt.Errorf("%w: chunk %d announces %d bytes", ErrChunk, idx, sizes[idx])
		}
	}
	return sizes, nil
}

// --- little-endian encode/decode helpers ---

type buffer struct{ bytes []byte }

func (b *buffer) b(v byte)     { b.bytes = append(b.bytes, v) }
func (b *buffer) raw(v []byte) { b.bytes = append(b.bytes, v...) }
func (b *buffer) u32(v uint32) { b.bytes = binary.LittleEndian.AppendUint32(b.bytes, v) }
func (b *buffer) u64(v uint64) { b.bytes = binary.LittleEndian.AppendUint64(b.bytes, v) }

type reader struct {
	bytes []byte
	off   int
}

// remaining reports unread bytes.
func (r *reader) remaining() int { return len(r.bytes) - r.off }

func (r *reader) take(n int) ([]byte, error) {
	if r.off+n > len(r.bytes) {
		return nil, ErrTruncated
	}
	v := r.bytes[r.off : r.off+n : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) b() (byte, error) {
	v, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (r *reader) u32() (uint32, error) {
	v, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(v), nil
}

func (r *reader) u64() (uint64, error) {
	v, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(v), nil
}
