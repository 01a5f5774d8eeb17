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
// connection, and length-prefixed frames carrying the three HPX message
// chunk groups. Progress is made by the kernel and the connection
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

// Config tunes the TCP parcelport group.
type Config struct {
	// SendQueue is the per-destination outbound queue depth. Default 1024.
	SendQueue int
	// ListenAddr is the address to listen on. Default "127.0.0.1:0".
	ListenAddr string
}

func (c *Config) fillDefaults() {
	if c.SendQueue <= 0 {
		c.SendQueue = 1024
	}
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
	conns := make([]*outConn, 0, len(pp.out))
	for _, oc := range pp.out {
		conns = append(conns, oc)
	}
	pp.out = make(map[int]*outConn)
	pp.outMu.Unlock()
	for _, oc := range conns {
		close(oc.q)
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

// Send frames the message onto the destination's connection queue.
func (pp *Parcelport) Send(dst int, m *serialization.Message) {
	if pp.stopped.Load() {
		return
	}
	oc, err := pp.connTo(dst)
	if err != nil {
		return // destination unreachable; message dropped like a dead TCP peer
	}
	defer func() {
		// The queue may close concurrently with Stop; a send on a closed
		// channel panics, which we absorb as "connection shut down".
		_ = recover()
	}()
	oc.q <- m
}

// BackgroundWork has nothing to do: the kernel and the connection
// goroutines make progress. It exists to satisfy the Parcelport contract.
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
	oc := &outConn{conn: conn, q: make(chan *serialization.Message, pp.group.cfg.SendQueue)}
	pp.out[dst] = oc
	pp.wg.Add(1)
	go pp.writeLoop(oc)
	return oc, nil
}

// writeLoop frames queued messages onto one connection.
func (pp *Parcelport) writeLoop(oc *outConn) {
	defer pp.wg.Done()
	defer oc.conn.Close()
	w := bufio.NewWriterSize(oc.conn, 64*1024)
	for m := range oc.q {
		if err := writeFrame(w, m); err != nil {
			m.Done()
			return
		}
		// Flush eagerly when no more messages are queued (latency), batch
		// otherwise (throughput) — the classic asio-style pattern.
		if len(oc.q) == 0 {
			if err := w.Flush(); err != nil {
				m.Done()
				return
			}
		}
		pp.sent.Add(1)
		pp.bytesSent.Add(uint64(m.TotalBytes()))
		m.Done()
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

// readLoop parses frames from one inbound connection and delivers them.
func (pp *Parcelport) readLoop(conn net.Conn) {
	defer pp.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64*1024)
	for !pp.stopped.Load() {
		// Each frame's small chunks land in pooled buffers tracked by a
		// refcounted owner; the delivery chain releases it when the last
		// parcel's action finished, recycling the buffers.
		owner := parcelport.GetRecvBufs()
		m, err := readFrame(r, owner)
		if err != nil {
			owner.Release()
			return
		}
		pp.recvd.Add(1)
		pp.bytesRecvd.Add(uint64(m.TotalBytes()))
		pp.deliver(m)
	}
}

// writeFrame emits one length-prefixed HPX message.
func writeFrame(w io.Writer, m *serialization.Message) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(m.NonZeroCopy)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(m.Transmission)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(m.ZeroCopy)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var lens [4]byte
	for _, zc := range m.ZeroCopy {
		binary.LittleEndian.PutUint32(lens[:], uint32(len(zc)))
		if _, err := w.Write(lens[:]); err != nil {
			return err
		}
	}
	if _, err := w.Write(m.NonZeroCopy); err != nil {
		return err
	}
	if _, err := w.Write(m.Transmission); err != nil {
		return err
	}
	for _, zc := range m.ZeroCopy {
		if _, err := w.Write(zc); err != nil {
			return err
		}
	}
	return nil
}

// readFrame parses one length-prefixed HPX message into owner's reusable
// message, staging every chunk in owner-tracked pooled buffers. On error the
// caller releases owner, which recycles whatever was staged.
func readFrame(r io.Reader, owner *parcelport.RecvBufs) (*serialization.Message, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return nil, fmt.Errorf("tcppp: bad frame magic")
	}
	nzcLen := binary.LittleEndian.Uint32(hdr[4:])
	transLen := binary.LittleEndian.Uint32(hdr[8:])
	numZC := binary.LittleEndian.Uint32(hdr[12:])
	if nzcLen > serialization.MaxChunkSize || transLen > serialization.MaxChunkSize || numZC > 1<<20 {
		return nil, fmt.Errorf("tcppp: implausible frame sizes")
	}
	zcLens := make([]uint32, numZC)
	var lens [4]byte
	for i := range zcLens {
		if _, err := io.ReadFull(r, lens[:]); err != nil {
			return nil, err
		}
		zcLens[i] = binary.LittleEndian.Uint32(lens[:])
		if zcLens[i] > serialization.MaxChunkSize {
			return nil, fmt.Errorf("tcppp: implausible chunk size")
		}
	}
	m := &owner.Msg
	*m = serialization.Message{Owner: owner}
	m.NonZeroCopy = owner.GetBuf(int(nzcLen))
	if _, err := io.ReadFull(r, m.NonZeroCopy); err != nil {
		return nil, err
	}
	if transLen > 0 {
		m.Transmission = owner.GetBuf(int(transLen))
		if _, err := io.ReadFull(r, m.Transmission); err != nil {
			return nil, err
		}
	}
	if numZC > 0 {
		m.ZeroCopy = make([][]byte, numZC)
		for i := range m.ZeroCopy {
			m.ZeroCopy[i] = owner.GetBuf(int(zcLens[i]))
			if _, err := io.ReadFull(r, m.ZeroCopy[i]); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}
