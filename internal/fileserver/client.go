package fileserver

import (
	"sync"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Client is a remote mount: it implements vfs.FS over a Conn, so the
// workload drivers in internal/workloads run against a served file system
// without modification. A single Client is safe for concurrent use by many
// goroutines; requests are multiplexed by id and responses demultiplexed
// by a dedicated reader goroutine, so concurrent callers pipeline
// naturally into the server's bounded window.
//
// Virtual time: every response carries the virtual nanoseconds the server
// charged its session for the request, and the calling ctx is advanced by
// exactly that, so throughput and latency measured at the client are the
// served numbers. (Network latency itself is not modelled.)
type Client struct {
	conn Conn
	name string
	mode vfs.ConsistencyMode
	// dc is non-nil when conn supports direct dispatch (in-memory pipe);
	// call checks its published entry point on every request.
	dc directConn

	wmu sync.Mutex // serialises frame writes

	mu         sync.Mutex
	pending    map[uint64]chan respFrame
	nextID     uint64
	closed     bool
	localClose bool // the client itself closed the conn (Close/Unmount)

	// onRevoke, when set, runs for every server lease-revoke push before
	// the client acks it. The page cache installs its flush-and-invalidate
	// here.
	revokeMu sync.Mutex
	onRevoke func(ino uint64)

	// bufs is the stack of idle call buffers (getBuf/putBuf): as many as
	// the most calls this client ever had in flight at once.
	bufMu sync.Mutex
	bufs  []*callBuf
}

// callBuf is the wire memory of one call: the request frame its caller
// encodes (through the embedded Enc; the frame header is reserved in front
// for writeOwnedFrame) and, on direct dispatch, the response frame the
// server encodes for it. The goroutine that took it with getBuf owns both
// until it hands it back with putBuf: through call, and for as long as it
// reads the Dec call returned, which points into resp. Every client
// goroutine with a call in flight holds its own.
type callBuf struct {
	Enc
	resp []byte
}

// reset empties the request, keeping its memory.
func (cb *callBuf) reset() {
	if cb.B == nil {
		cb.B = make([]byte, frameHdrLen, frameHdrLen+64)
	}
	cb.B = cb.B[:frameHdrLen]
}

// getBuf returns a call buffer with an empty request.
func (c *Client) getBuf() *callBuf {
	var cb *callBuf
	c.bufMu.Lock()
	if n := len(c.bufs); n > 0 {
		cb, c.bufs = c.bufs[n-1], c.bufs[:n-1]
	}
	c.bufMu.Unlock()
	if cb == nil {
		cb = new(callBuf)
	}
	cb.reset()
	return cb
}

// putBuf ends the caller's ownership of cb. Nothing decoded from the
// response may still point into it: Dec.Str copies, Dec.Bytes does not.
func (c *Client) putBuf(cb *callBuf) {
	if cap(cb.B) > maxKeptBuf {
		cb.B = nil
	}
	if cap(cb.resp) > maxKeptBuf {
		cb.resp = nil
	}
	c.bufMu.Lock()
	c.bufs = append(c.bufs, cb)
	c.bufMu.Unlock()
}

type respFrame struct {
	st      status
	payload []byte
}

// respChanPool recycles the per-call response channels; a scaling sweep
// makes millions of calls and the per-call makechan showed up in profiles.
var respChanPool = sync.Pool{New: func() any { return make(chan respFrame, 1) }}

var _ vfs.FS = (*Client)(nil)

// Dial performs the protocol handshake over an established connection and
// returns the remote mount.
func Dial(conn Conn) (*Client, error) {
	c := &Client{conn: conn, pending: make(map[uint64]chan respFrame)}
	c.dc, _ = conn.(directConn)
	go c.readLoop()
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.U32(ProtoVersion)
	d, err := c.call(nil, opHello, cb)
	if err != nil {
		conn.Close()
		return nil, err
	}
	d.U32() // server protocol version (equal or the handshake would have failed)
	c.name = d.Str()
	c.mode = vfs.ConsistencyMode(d.U8())
	d.U32() // server CPUs
	d.U32() // server window
	if !d.OK() {
		conn.Close()
		return nil, ErrBadRequest
	}
	return c, nil
}

// dead reports whether this client's transport is closed from its own
// point of view (either side).
func (c *Client) dead() bool {
	c.mu.Lock()
	d := c.closed || c.localClose
	c.mu.Unlock()
	return d
}

// transportErr picks the right sentinel for a dead transport: ErrConnClosed
// if this client closed the connection itself, ErrServerGone if the far
// side vanished underneath it.
func (c *Client) transportErr() error {
	c.mu.Lock()
	local := c.localClose
	c.mu.Unlock()
	if local {
		return ErrConnClosed
	}
	return ErrServerGone
}

// readLoop demultiplexes responses to their waiting callers. On transport
// death every waiter is woken with ErrConnClosed.
func (c *Client) readLoop() {
	var hdr [frameHdrLen]byte
	for {
		id, code, payload, err := readFrame(c.conn, &hdr)
		if err != nil {
			c.mu.Lock()
			c.closed = true
			for _, ch := range c.pending {
				close(ch)
			}
			c.pending = make(map[uint64]chan respFrame)
			c.mu.Unlock()
			return
		}
		if code == statusRevoke {
			// Server push, not a response: the id field carries the
			// revoked ino. Handle on a fresh goroutine — the handler
			// flushes dirty pages through this very connection, so it must
			// not block the demultiplexer.
			go c.handleRevoke(id)
			continue
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- respFrame{st: status(code), payload: payload}
		}
	}
}

// SetRevokeHandler installs the callback run when the server revokes a
// lease. The handler must flush and drop every cached page and attribute
// for the ino before returning; the client acks the revoke only after it
// returns, and the server holds the conflicting request until that ack.
func (c *Client) SetRevokeHandler(h func(ino uint64)) {
	c.revokeMu.Lock()
	c.onRevoke = h
	c.revokeMu.Unlock()
}

// handleRevoke runs the installed revoke handler (if any) and acks.
func (c *Client) handleRevoke(ino uint64) {
	c.revokeMu.Lock()
	h := c.onRevoke
	c.revokeMu.Unlock()
	if h != nil {
		h(ino)
	}
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.U64(ino)
	// Best effort: if the connection died the server's teardown drops the
	// lease anyway.
	c.call(nil, opLeaseAck, cb)
}

// call issues the request encoded in cb and blocks for its response. ctx
// (nil for the handshake and revoke acks) is advanced by the server-charged
// virtual cost whether the request succeeded or not — failed syscalls cost
// time too. The returned Dec reads the response payload; on direct dispatch
// it points into cb, so the caller decodes before putBuf (see callBuf).
func (c *Client) call(ctx *sim.Ctx, o op, cb *callBuf) (Dec, error) {
	if c.dc != nil {
		// Direct dispatch (in-process transports): run the server's
		// request path on this goroutine and get the response frame back
		// synchronously, encoded into this call's own buffer — no framing,
		// no demux, no goroutine handoffs. A client that closed (or lost)
		// its connection must keep failing like one, even while the server
		// session is still tearing down.
		if sd := c.dc.getDirect(); sd != nil && !c.dead() {
			if st, frame, ok := sd.call(o, cb.B[frameHdrLen:], cb.resp); ok {
				cb.resp = frame
				return finishCall(ctx, st, frame[frameHdrLen:])
			}
		}
	}
	// Response channels are pooled: one per in-flight call, returned once
	// the response is received. A channel is never pooled after readLoop
	// closed it (transport death), so pooled channels are always open and
	// empty.
	ch := respChanPool.Get().(chan respFrame)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		respChanPool.Put(ch)
		return Dec{}, c.transportErr()
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeOwnedFrame(c.conn, id, uint8(o), cb.B)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		// If readLoop already ran its teardown it closed our channel;
		// only an unclosed channel may be reused.
		reusable := !c.closed
		c.mu.Unlock()
		if reusable {
			respChanPool.Put(ch)
		}
		return Dec{}, c.transportErr()
	}

	f, ok := <-ch
	if !ok {
		return Dec{}, c.transportErr()
	}
	respChanPool.Put(ch)
	return finishCall(ctx, f.st, f.payload)
}

// finishCall charges ctx the cost a response body leads with and turns its
// status into the call's result.
func finishCall(ctx *sim.Ctx, st status, body []byte) (Dec, error) {
	d := Dec{B: body}
	cost := d.U64()
	if ctx != nil {
		ctx.Advance(int64(cost))
	}
	if st != statusOK {
		return Dec{}, errFor(st, d.Str())
	}
	return d, nil
}

// pathCall is the shape shared by Mkdir/Unlink/Rmdir.
func (c *Client) pathCall(ctx *sim.Ctx, o op, path string) error {
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.Str(path)
	_, err := c.call(ctx, o, cb)
	return err
}

// Name implements vfs.FS; it reports the served file system's name.
func (c *Client) Name() string { return c.name }

// Mode implements vfs.FS.
func (c *Client) Mode() vfs.ConsistencyMode { return c.mode }

func (c *Client) openLike(ctx *sim.Ctx, o op, path string) (vfs.File, error) {
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.Str(path)
	d, err := c.call(ctx, o, cb)
	if err != nil {
		return nil, err
	}
	f := &remoteFile{c: c, handle: d.U64(), ino: d.U64(), size: d.I64()}
	if !d.OK() {
		return nil, ErrBadRequest
	}
	return f, nil
}

// Create implements vfs.FS.
func (c *Client) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, opCreate, path)
}

// Open implements vfs.FS.
func (c *Client) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, opOpen, path)
}

// Mkdir implements vfs.FS.
func (c *Client) Mkdir(ctx *sim.Ctx, path string) error {
	return c.pathCall(ctx, opMkdir, path)
}

// Unlink implements vfs.FS.
func (c *Client) Unlink(ctx *sim.Ctx, path string) error {
	return c.pathCall(ctx, opUnlink, path)
}

// Rmdir implements vfs.FS.
func (c *Client) Rmdir(ctx *sim.Ctx, path string) error {
	return c.pathCall(ctx, opRmdir, path)
}

// Rename implements vfs.FS.
func (c *Client) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.Str(oldPath)
	cb.Str(newPath)
	_, err := c.call(ctx, opRename, cb)
	return err
}

// Stat implements vfs.FS.
func (c *Client) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.Str(path)
	d, err := c.call(ctx, opStat, cb)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	fi := vfs.FileInfo{
		Ino:   d.U64(),
		Size:  d.I64(),
		IsDir: d.U8() != 0,
		Nlink: int(d.U32()),
	}
	if !d.OK() {
		return vfs.FileInfo{}, ErrBadRequest
	}
	return fi, nil
}

// ReadDir implements vfs.FS.
func (c *Client) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	cb := c.getBuf()
	defer c.putBuf(cb)
	cb.Str(path)
	d, err := c.call(ctx, opReadDir, cb)
	if err != nil {
		return nil, err
	}
	n := d.U32()
	ents := make([]vfs.DirEntry, 0, n)
	for i := uint32(0); i < n && d.OK(); i++ {
		ents = append(ents, vfs.DirEntry{
			Name:  d.Str(),
			Ino:   d.U64(),
			IsDir: d.U8() != 0,
		})
	}
	if !d.OK() {
		return nil, ErrBadRequest
	}
	return ents, nil
}

// StatFS implements vfs.FS. A dead connection reports a zero StatFS (the
// interface has no error return).
func (c *Client) StatFS(ctx *sim.Ctx) vfs.StatFS {
	cb := c.getBuf()
	defer c.putBuf(cb)
	d, err := c.call(ctx, opStatFS, cb)
	if err != nil {
		return vfs.StatFS{}
	}
	return vfs.StatFS{
		TotalBlocks:   d.I64(),
		FreeBlocks:    d.I64(),
		FreeAligned2M: d.I64(),
		Files:         d.I64(),
	}
}

// FreeExtents implements vfs.FS. The physical free-space map is a local
// concern of the served file system; a remote mount has no view of it.
func (c *Client) FreeExtents() []alloc.Extent { return nil }

// Unmount implements vfs.FS: it detaches from the server (closing this
// session's handles server-side) and closes the connection. The served
// file system itself stays mounted for other clients.
func (c *Client) Unmount(ctx *sim.Ctx) error {
	cb := c.getBuf()
	defer c.putBuf(cb)
	_, err := c.call(ctx, opDetach, cb)
	c.Close()
	return err
}

// Close tears the connection down without the detach round trip.
func (c *Client) Close() error {
	c.mu.Lock()
	c.localClose = true
	c.mu.Unlock()
	return c.conn.Close()
}

// remoteFile is an open handle on a served file. Safe for concurrent use;
// the cached size is refreshed from every size-changing response.
type remoteFile struct {
	c      *Client
	handle uint64
	ino    uint64

	mu   sync.Mutex
	size int64
}

var _ vfs.File = (*remoteFile)(nil)

// Ino implements vfs.File.
func (f *remoteFile) Ino() uint64 { return f.ino }

// Size implements vfs.File; it returns the size as of the last response
// that reported one (writes through other clients move it server-side).
func (f *remoteFile) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

func (f *remoteFile) setSize(s int64) {
	f.mu.Lock()
	f.size = s
	f.mu.Unlock()
}

// ReadAt implements vfs.File, splitting large reads into maxIO frames.
// Like the local file systems it truncates reads past EOF and returns
// (0, nil) at EOF.
func (f *remoteFile) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > maxIO {
			chunk = maxIO
		}
		cb.reset()
		cb.U64(f.handle)
		cb.I64(off + int64(total))
		cb.U32(uint32(chunk))
		d, err := f.c.call(ctx, opRead, cb)
		if err != nil {
			return total, err
		}
		data := d.Bytes()
		if !d.OK() {
			return total, ErrBadRequest
		}
		copy(p[total:], data)
		total += len(data)
		if len(data) < chunk {
			break // EOF
		}
	}
	return total, nil
}

// writeLike shares the chunking loop between WriteAt and Append.
func (f *remoteFile) writeLike(ctx *sim.Ctx, o op, p []byte, off int64) (int, error) {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	total := 0
	for {
		chunk := len(p) - total
		if chunk > maxIO {
			chunk = maxIO
		}
		cb.reset()
		cb.U64(f.handle)
		if o == opWrite {
			cb.I64(off + int64(total))
		}
		cb.Bytes(p[total : total+chunk])
		d, err := f.c.call(ctx, o, cb)
		if err != nil {
			return total, err
		}
		n := int(d.U32())
		size := d.I64()
		if !d.OK() {
			return total, ErrBadRequest
		}
		f.setSize(size)
		total += n
		if n < chunk || total >= len(p) {
			return total, nil
		}
	}
}

// WriteAt implements vfs.File.
func (f *remoteFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return f.writeLike(ctx, opWrite, p, off)
}

// Append implements vfs.File.
func (f *remoteFile) Append(ctx *sim.Ctx, p []byte) (int, error) {
	return f.writeLike(ctx, opAppend, p, 0)
}

// Truncate implements vfs.File.
func (f *remoteFile) Truncate(ctx *sim.Ctx, size int64) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.I64(size)
	d, err := f.c.call(ctx, opTruncate, cb)
	if err != nil {
		return err
	}
	f.setSize(d.I64())
	return nil
}

// Fallocate implements vfs.File.
func (f *remoteFile) Fallocate(ctx *sim.Ctx, off, n int64) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.I64(off)
	cb.I64(n)
	d, err := f.c.call(ctx, opFallocate, cb)
	if err != nil {
		return err
	}
	f.setSize(d.I64())
	return nil
}

// Lease asks the server for a cache lease on this handle's file: shared
// for write=false, exclusive for write=true. It reports whether the lease
// was granted; a refusal (the server bounds revoke retries rather than
// livelock) just means the caller must run uncached. pagecache.Cache is
// the intended caller, via its Leasable interface.
func (f *remoteFile) Lease(ctx *sim.Ctx, write bool) (bool, error) {
	mode := leaseRead
	if write {
		mode = leaseWrite
	}
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.U8(mode)
	d, err := f.c.call(ctx, opLease, cb)
	if err != nil {
		return false, err
	}
	granted := d.U8() != 0
	if !d.OK() {
		return false, ErrBadRequest
	}
	return granted, nil
}

// Unlease voluntarily releases any lease held through this handle.
func (f *remoteFile) Unlease(ctx *sim.Ctx) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.U8(leaseNone)
	_, err := f.c.call(ctx, opLease, cb)
	return err
}

// Fsync implements vfs.File.
func (f *remoteFile) Fsync(ctx *sim.Ctx) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	_, err := f.c.call(ctx, opFsync, cb)
	return err
}

// Mmap implements vfs.File. A remote client shares no address space with
// the server, so it is no vfs.Mapper and mapping reports
// vfs.ErrNotSupported (SplitFS-style client-side mapping would need the
// data path split out of the protocol).
func (f *remoteFile) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return vfs.Mmap(ctx, f, length)
}

// Extents implements vfs.File; physical layout is not visible remotely.
func (f *remoteFile) Extents() []mmu.Extent { return nil }

// SetXattr implements vfs.File.
func (f *remoteFile) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.Str(name)
	cb.Bytes(value)
	_, err := f.c.call(ctx, opSetXattr, cb)
	return err
}

// GetXattr implements vfs.File.
func (f *remoteFile) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	cb.Str(name)
	d, err := f.c.call(ctx, opGetXattr, cb)
	if err != nil {
		return nil, false
	}
	ok := d.U8() != 0
	val := append([]byte(nil), d.Bytes()...)
	if !d.OK() || !ok {
		return nil, false
	}
	return val, true
}

// Close implements vfs.File.
func (f *remoteFile) Close(ctx *sim.Ctx) error {
	cb := f.c.getBuf()
	defer f.c.putBuf(cb)
	cb.U64(f.handle)
	_, err := f.c.call(ctx, opCloseHandle, cb)
	return err
}
