package tcppp

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// oversizeFrame is a frame header announcing one zero-copy chunk one byte
// above the bound the three transports share.
func oversizeFrame() []byte {
	b := binary.LittleEndian.AppendUint32(nil, frameMagic)
	b = binary.LittleEndian.AppendUint32(b, 8) // nzc
	b = binary.LittleEndian.AppendUint32(b, 0) // trans
	b = binary.LittleEndian.AppendUint32(b, 1) // zero-copy chunks
	return binary.LittleEndian.AppendUint32(b, serialization.MaxChunkSize+1)
}

// TestOversizeChunkFailsConnection: a frame announcing a chunk above
// serialization.MaxChunkSize is rejected before anything is staged for it
// (readLoop then releases the frame's owner and returns); the inbound
// connection it arrived on is closed, and the parcelport keeps delivering on
// its other connections.
func TestOversizeChunkFailsConnection(t *testing.T) {
	owner := parcelport.GetRecvBufs()
	m, err := readFrame(bytes.NewReader(oversizeFrame()), owner)
	owner.Release()
	if err == nil || m != nil {
		t.Fatalf("readFrame accepted an oversize chunk: %v, %v", m, err)
	}

	r := newRig(t, 2)
	conn, err := net.Dial("tcp", r.g.Parcelport(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(oversizeFrame()); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("receiver kept the connection open after a corrupt frame: %v", err)
	}
	m, want := msgWith(64, 9000)
	r.g.Parcelport(0).Send(1, m)
	r.waitCount(t, 1, 1, 10*time.Second)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.received[1]) != 1 {
		t.Fatalf("%d messages delivered, want only the intact one", len(r.received[1]))
	}
	checkRoundTrip(t, r.received[1][0], want)
}
