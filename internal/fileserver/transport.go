package fileserver

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is a bidirectional byte stream between one client and the server.
// Both transports (TCP and the in-memory pipe) satisfy it; the optional
// CloseRead side-channel (satisfied by *net.TCPConn and *pipeConn) lets a
// draining server stop reading new requests while the in-flight ones are
// still answered on the write side. A Write may be split by the transport
// (the pipe queues at most bufPipeMax bytes and waits for the reader
// between pieces), so concurrent writers on one Conn must serialise their
// frames: a session and a client each hold their wmu, and a replication
// link has one sender goroutine.
type Conn = io.ReadWriteCloser

// Listener accepts client connections for Server.Serve.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr describes the listening endpoint (host:port for TCP).
	Addr() string
}

// closeRead shuts the read side of a connection when the transport
// supports it, falling back to a full close.
func closeRead(c Conn) {
	if cr, ok := c.(interface{ CloseRead() error }); ok {
		cr.CloseRead()
		return
	}
	c.Close()
}

// --- TCP transport ---------------------------------------------------------

type tcpListener struct{ l net.Listener }

// ListenTCP starts a TCP listener for winefsd. addr follows net.Listen
// conventions ("127.0.0.1:7070", ":0" for an ephemeral port).
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Frames are small and latency-sensitive; never wait for Nagle.
		tc.SetNoDelay(true)
	}
	return c, nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// DialTCP connects to a winefsd instance.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return c, nil
}

// --- in-memory pipe transport ----------------------------------------------

// PipeListener is the deterministic in-memory transport the tests and the
// winebench -server baseline use: no sockets, no kernel involvement, every
// byte moves through a mutex-guarded buffer, so runs are reproducible and
// the race detector sees every cross-goroutine edge.
type PipeListener struct {
	accept chan Conn
	once   sync.Once
	closed chan struct{}
}

// NewPipeListener returns an open in-memory listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{
		accept: make(chan Conn),
		closed: make(chan struct{}),
	}
}

// Dial connects a new client, handing the server half to Accept. It fails
// with ErrShutdown once the listener is closed.
func (p *PipeListener) Dial() (Conn, error) {
	client, server := pipePair()
	select {
	case p.accept <- server:
		return client, nil
	case <-p.closed:
		client.Close()
		return nil, ErrShutdown
	}
}

// Accept implements Listener.
func (p *PipeListener) Accept() (Conn, error) {
	select {
	case c := <-p.accept:
		return c, nil
	case <-p.closed:
		return nil, ErrShutdown
	}
}

// Close implements Listener; pending and future Dial/Accept calls fail.
func (p *PipeListener) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// Addr implements Listener.
func (p *PipeListener) Addr() string { return "pipe" }

// pipeConn is one end of an in-memory duplex stream built from two
// buffered byte queues. The earlier implementation used io.Pipe, whose
// rendezvous handoff parks the writer until the reader arrives — profiled
// at ~20% of the -server bench sweep in scheduler churn. A bounded buffer
// keeps writes of whole frames non-blocking in the common case while
// preserving stream semantics: reads drain buffered bytes before
// reporting the peer's close.
type pipeConn struct {
	rd *bufPipe // inbound: the peer writes here, we read
	wr *bufPipe // outbound: we write here, the peer reads
	// cell is shared by both endpoints; a Server session accepting this
	// pipe publishes its synchronous dispatch entry point here, letting
	// the client end invoke the server directly on its own goroutine (see
	// sessionDirect in server.go). Raw-frame users (the replication
	// stream) never publish, so the cell stays nil and framing applies.
	cell *directCell
}

// directCell is the rendezvous slot for the direct-dispatch fast path.
type directCell struct{ p atomic.Pointer[sessionDirect] }

func pipePair() (a, b Conn) {
	p, q := newBufPipe(), newBufPipe()
	cell := &directCell{}
	return &pipeConn{rd: p, wr: q, cell: cell}, &pipeConn{rd: q, wr: p, cell: cell}
}

// directConn is satisfied by transports whose endpoints share an address
// space, enabling the synchronous dispatch path.
type directConn interface {
	setDirect(sd *sessionDirect)
	getDirect() *sessionDirect
}

func (c *pipeConn) setDirect(sd *sessionDirect) { c.cell.p.Store(sd) }
func (c *pipeConn) getDirect() *sessionDirect   { return c.cell.p.Load() }

func (c *pipeConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *pipeConn) Close() error {
	c.rd.closeRead(io.ErrClosedPipe)
	c.wr.closeWrite(io.ErrClosedPipe)
	return nil
}

// CloseRead shuts only the inbound half: our reads (and the peer's writes)
// fail, while our writes still reach the peer — exactly what graceful
// drain needs.
func (c *pipeConn) CloseRead() error {
	c.rd.closeRead(io.EOF)
	return nil
}

// bufPipe is one direction of the in-memory transport: a bounded FIFO of
// bytes with net.Conn-like close semantics.
type bufPipe struct {
	mu   sync.Mutex
	cond sync.Cond
	data []byte
	roff int
	// werr is set when the writer closed; readers see it after draining.
	werr error
	// rerr is set when the reader closed; writers fail with it immediately
	// and reads fail with io.ErrClosedPipe (buffered bytes are abandoned,
	// matching io.PipeReader.CloseWithError).
	rerr error
}

// bufPipeMax bounds buffered bytes per direction so a slow reader (e.g. a
// stalled replication follower) exerts back-pressure instead of growing
// host memory without limit.
const bufPipeMax = 1 << 20

func newBufPipe() *bufPipe {
	p := &bufPipe{}
	p.cond.L = &p.mu
	return p
}

func (p *bufPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rerr != nil {
			return 0, io.ErrClosedPipe
		}
		if p.roff < len(p.data) {
			n := copy(b, p.data[p.roff:])
			p.roff += n
			if p.roff == len(p.data) {
				p.data = p.data[:0]
				p.roff = 0
			}
			p.cond.Broadcast()
			return n, nil
		}
		if p.werr != nil {
			return 0, p.werr
		}
		p.cond.Wait()
	}
}

// write queues all of b, waiting for the reader whenever bufPipeMax bytes
// are unread (see Conn for what that means to concurrent writers).
func (p *bufPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for {
		if p.rerr != nil {
			return written, p.rerr
		}
		if p.werr != nil {
			return written, io.ErrClosedPipe
		}
		if room := bufPipeMax - (len(p.data) - p.roff); room > 0 {
			n := len(b)
			if n > room {
				n = room
			}
			p.data = append(p.data, b[:n]...)
			b = b[n:]
			written += n
			p.cond.Broadcast()
			if len(b) == 0 {
				return written, nil
			}
		}
		p.cond.Wait()
	}
}

func (p *bufPipe) closeRead(err error) {
	p.mu.Lock()
	if p.rerr == nil {
		p.rerr = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *bufPipe) closeWrite(err error) {
	p.mu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
