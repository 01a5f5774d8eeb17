// Package tcppp implements the TCP parcelport — the other communication
// backend HPX shipped before this project ("Prior to this project, it had
// two communication backends (parcelports): TCP and MPI", §1). The paper
// does not evaluate it (it is far slower than both), but a complete
// reproduction of the stack includes it, and it doubles as a reference
// implementation over a real kernel transport.
//
// Unlike the MPI and LCI parcelports it does not ride the simulated fabric:
// localities talk over real loopback TCP connections, with one lazily
// dialled connection per (source, destination) pair, a writer goroutine per
// connection, and frames carrying the same header message and follow-up
// chunks as the other parcelports, reassembled by the shared
// parcelport.Recv. Progress is made by the kernel and the connection
// goroutines, so BackgroundWork has nothing to poll.
package tcppp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// frameMagic guards against stream desynchronization.
const frameMagic uint32 = 0x48505854 // "HPXT"

// maxHeader caps a frame's header message; chunks that do not fit after the
// fixed header fields follow it as separate writes.
const maxHeader = serialization.DefaultZeroCopyThreshold

// sendQueue is the per-destination outbound queue depth.
const sendQueue = 1024

// Config tunes the TCP parcelport group.
type Config struct {
	// ListenAddr is the address to listen on. Default "127.0.0.1:0".
	ListenAddr string
}

func (c *Config) fillDefaults() {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
}

// Group wires n localities over loopback TCP. All listeners are created
// eagerly so every parcelport knows every address.
type Group struct {
	cfg Config
	pps []*Parcelport
}

// NewGroup creates the group and its listeners.
func NewGroup(n int, cfg Config) (*Group, error) {
	cfg.fillDefaults()
	if n <= 0 {
		return nil, fmt.Errorf("tcppp: need at least one locality")
	}
	g := &Group{cfg: cfg}
	g.pps = make([]*Parcelport, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			for j := 0; j < i; j++ {
				g.pps[j].ln.Close()
			}
			return nil, fmt.Errorf("tcppp: listen: %w", err)
		}
		g.pps[i] = &Parcelport{group: g, id: i, ln: ln, out: make(map[int]*outConn)}
	}
	return g, nil
}

// Parcelport returns locality i's parcelport.
func (g *Group) Parcelport(i int) *Parcelport { return g.pps[i] }

// Size returns the number of localities.
func (g *Group) Size() int { return len(g.pps) }

// Stats are cumulative parcelport counters.
type Stats struct {
	MessagesSent  uint64
	MessagesRecvd uint64
	BytesSent     uint64
	BytesRecvd    uint64
}

// Parcelport is the TCP parcelport of one locality.
type Parcelport struct {
	group   *Group
	id      int
	ln      net.Listener
	deliver parcelport.DeliverFunc

	outMu sync.Mutex
	out   map[int]*outConn

	inMu sync.Mutex
	in   []net.Conn

	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool

	sent, recvd           atomic.Uint64
	bytesSent, bytesRecvd atomic.Uint64
}

// outConn is one outbound connection with its writer goroutine.
type outConn struct {
	conn net.Conn
	q    chan *serialization.Message

	// mu is held shared by Sends enqueueing onto q, across a send that may
	// block on a full queue, and exclusively by shut, so q never closes
	// under a sender. shut runs only while the writer drains q, so a
	// blocked sender always gets through and shut cannot wait forever.
	mu     sync.RWMutex
	closed bool
}

// enqueue queues m for the writer, reporting false if the connection is
// shut.
func (oc *outConn) enqueue(m *serialization.Message) bool {
	oc.mu.RLock()
	defer oc.mu.RUnlock()
	if !oc.closed {
		oc.q <- m
	}
	return !oc.closed
}

// shut refuses further sends and closes the queue; the writer drains what
// is already queued.
func (oc *outConn) shut() {
	oc.mu.Lock()
	if !oc.closed {
		oc.closed = true
		close(oc.q)
	}
	oc.mu.Unlock()
}

// Name returns the configuration name (without the upper layer's "_i").
func (pp *Parcelport) Name() string { return "tcp" }

// Addr returns the listen address (tests).
func (pp *Parcelport) Addr() string { return pp.ln.Addr().String() }

// Stats returns a snapshot of the counters.
func (pp *Parcelport) Stats() Stats {
	return Stats{
		MessagesSent:  pp.sent.Load(),
		MessagesRecvd: pp.recvd.Load(),
		BytesSent:     pp.bytesSent.Load(),
		BytesRecvd:    pp.bytesRecvd.Load(),
	}
}

// Start installs the delivery callback and begins accepting connections.
func (pp *Parcelport) Start(deliver parcelport.DeliverFunc) error {
	if deliver == nil {
		return fmt.Errorf("tcppp: nil deliver callback")
	}
	if !pp.started.CompareAndSwap(false, true) {
		return fmt.Errorf("tcppp: already started")
	}
	pp.deliver = deliver
	pp.wg.Add(1)
	go pp.acceptLoop()
	return nil
}

// Stop closes the listener and every connection and joins the goroutines.
func (pp *Parcelport) Stop() {
	if !pp.stopped.CompareAndSwap(false, true) {
		return
	}
	pp.ln.Close()
	pp.outMu.Lock()
	out := pp.out
	pp.out = make(map[int]*outConn)
	pp.outMu.Unlock()
	for _, oc := range out {
		oc.shut()
	}
	// Close inbound connections too: their read loops otherwise block until
	// the remote side shuts down, deadlocking the join below.
	pp.inMu.Lock()
	for _, c := range pp.in {
		c.Close()
	}
	pp.in = nil
	pp.inMu.Unlock()
	if pp.started.Load() {
		pp.wg.Wait()
	}
}

// Send frames the message onto the destination's connection queue. A
// message that cannot be sent — the parcelport is stopped, the destination
// unreachable, or its connection dead — is dropped like one lost to a dead
// TCP peer, and completes locally at once.
func (pp *Parcelport) Send(dst int, m *serialization.Message) {
	if pp.stopped.Load() {
		m.Done()
		return
	}
	oc, err := pp.connTo(dst)
	if err != nil || !oc.enqueue(m) {
		m.Done()
	}
}

// BackgroundWork has nothing to do: the kernel and the connection
// goroutines make progress. It exists to satisfy the Parcelport contract;
// core starts no worker poll loop for tcp unless the continuation reaper or
// the aggregation layer's stale flush needs one.
func (pp *Parcelport) BackgroundWork(workerID int) bool { return false }

// connTo returns (dialling if needed) the outbound connection to dst.
func (pp *Parcelport) connTo(dst int) (*outConn, error) {
	if dst < 0 || dst >= len(pp.group.pps) {
		return nil, fmt.Errorf("tcppp: invalid destination %d", dst)
	}
	pp.outMu.Lock()
	defer pp.outMu.Unlock()
	if oc, ok := pp.out[dst]; ok {
		return oc, nil
	}
	conn, err := net.Dial("tcp", pp.group.pps[dst].Addr())
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	oc := &outConn{conn: conn, q: make(chan *serialization.Message, sendQueue)}
	pp.out[dst] = oc
	pp.wg.Add(1)
	go pp.writeLoop(dst, oc)
	return oc, nil
}

// writeLoop frames queued messages onto the connection to dst. On a write
// error it retires the connection — the next Send to dst dials afresh — and
// completes every message still queued, so no sender waits on a dead peer.
func (pp *Parcelport) writeLoop(dst int, oc *outConn) {
	defer pp.wg.Done()
	defer oc.conn.Close()
	w := bufio.NewWriterSize(oc.conn, 64*1024)
	hdr := make([]byte, 8+maxHeader)
	for m := range oc.q {
		err := writeFrame(w, m, hdr)
		// Flush eagerly when no more messages are queued (latency), batch
		// otherwise (throughput) — the classic asio-style pattern.
		if err == nil && len(oc.q) == 0 {
			err = w.Flush()
		}
		if err == nil {
			pp.sent.Add(1)
			pp.bytesSent.Add(uint64(m.TotalBytes()))
		}
		m.Done()
		if err != nil {
			pp.outMu.Lock()
			if pp.out[dst] == oc {
				delete(pp.out, dst)
			}
			pp.outMu.Unlock()
			// Sends blocked on a full queue hold oc.mu: keep draining while
			// shut waits them out and closes q, which ends the drain.
			go oc.shut()
			for m := range oc.q {
				m.Done()
			}
			return
		}
	}
	w.Flush()
}

// acceptLoop accepts inbound connections until the listener closes.
func (pp *Parcelport) acceptLoop() {
	defer pp.wg.Done()
	for {
		conn, err := pp.ln.Accept()
		if err != nil {
			return
		}
		pp.inMu.Lock()
		if pp.stopped.Load() {
			pp.inMu.Unlock()
			conn.Close()
			return
		}
		pp.in = append(pp.in, conn)
		pp.inMu.Unlock()
		pp.wg.Add(1)
		go pp.readLoop(conn)
	}
}

// readLoop parses frames from one inbound connection and delivers them. Each
// frame's chunks land in pooled buffers tracked by a refcounted owner; the
// delivery chain releases it when the last parcel's action finished,
// recycling the buffers. A corrupt frame closes the connection.
func (pp *Parcelport) readLoop(conn net.Conn) {
	defer pp.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	hdr := make([]byte, maxHeader)
	for !pp.stopped.Load() {
		m, err := readFrame(r, hdr)
		if err != nil {
			return
		}
		pp.recvd.Add(1)
		pp.bytesRecvd.Add(uint64(m.TotalBytes()))
		pp.deliver(m)
	}
}

// writeFrame emits one HPX message: magic, the header message's length, the
// header message (parcelport.EncodeHeader, piggybacking what fits under
// maxHeader), then the follow-up chunks in parcelport.AppendFollowUps order.
// hdr is scratch of 8+maxHeader bytes.
func writeFrame(w io.Writer, m *serialization.Message, hdr []byte) error {
	n, piggyNZC, piggyTrans, err := parcelport.EncodeHeader(hdr[8:], 0, m, maxHeader, true)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	if _, err := w.Write(hdr[:8+n]); err != nil {
		return err
	}
	var segs [4][]byte
	for _, seg := range parcelport.AppendFollowUps(segs[:0], m, piggyNZC, piggyTrans) {
		if _, err := w.Write(seg); err != nil {
			return err
		}
	}
	return nil
}

// readFrame parses one frame into a pooled owner's message: the header
// message lands in hdr (maxHeader bytes, reused across frames), its
// piggybacked chunks are copied into owner-tracked buffers, and
// parcelport.Recv validates the sizes and stages the follow-ups.
func readFrame(r io.Reader, hdr []byte) (*serialization.Message, error) {
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic || n > uint32(len(hdr)) {
		return nil, fmt.Errorf("tcppp: bad frame prefix")
	}
	if _, err := io.ReadFull(r, hdr[:n]); err != nil {
		return nil, err
	}
	h, err := parcelport.DecodeHeader(hdr[:n])
	var rx parcelport.Recv
	if err == nil {
		owner := parcelport.GetRecvBufs()
		h.NZC = owner.Clone(h.NZC)
		h.Trans = owner.Clone(h.Trans)
		err = rx.Start(h, owner)
	}
	for buf := rx.Next(); err == nil && buf != nil; buf = rx.Next() {
		if _, err = io.ReadFull(r, buf); err == nil {
			err = rx.Done()
		}
	}
	if err != nil {
		rx.Fail()
		return nil, err
	}
	return rx.Message(), nil
}
