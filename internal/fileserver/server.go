package fileserver

import (
	"context"
	"encoding/binary"
	"strconv"
	"sync"
	"time"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Thread-id bases keep simulated session threads (and their RNG streams)
// disjoint from the workload drivers' 1000–5000 range.
const (
	sessionThreadBase = 9000
	cleanupThreadBase = 12000
)

// sessionWindow is the per-session bound on queued pipelined requests.
// When a client pipelines past it the server stops reading its
// connection, which backpressures the transport instead of buffering
// without limit. The hello announces it.
const sessionWindow = 32

// Config tunes a Server.
type Config struct {
	// CPUs is the simulated-CPU domain sessions are pinned to round-robin,
	// so WineFS's per-CPU journals and allocator pools see genuinely
	// multi-core traffic. Default 8.
	CPUs int
	// Tracer, when non-nil, gives every session a trace context: each
	// request becomes a root span named rpc.<op> whose children are the
	// spans the FS, MMU and device layers open underneath (journal commits,
	// page faults, bulk zeroing). Nil disables tracing.
	Tracer *trace.Tracer
	// BaseNS is the virtual instant session clocks start at. A server over
	// a file system that was populated before it started should pass the
	// populating thread's final Now(): lock and device-port calendars
	// already extend to that frontier, and a session starting at 0 would
	// charge the entire setup history to its first lock acquisition as
	// phantom wait time.
	BaseNS int64
	// RevokeTimeout bounds (in wall-clock time — it is a liveness guard,
	// not part of the simulation) how long a conflicting request waits for
	// a lease holder to flush and ack a revoke. On expiry the holder's read
	// side is shut — the graceful-drain path — its leases are force-dropped
	// and the request proceeds. Default 5s. ShutdownCtx reuses it as the
	// grace period before live connections are severed.
	RevokeTimeout time.Duration
	// PostMutate, when non-nil, runs on the session worker after any
	// request that wrote to persistent media (detected by the session's
	// PMWriteBytes delta), inside the request's cost window. The cluster
	// replicator hooks synchronous-replication waits and virtual
	// replication cost in here.
	PostMutate func(ctx *sim.Ctx, bytes int64)
}

func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 8
	}
	if c.RevokeTimeout <= 0 {
		c.RevokeTimeout = 5 * time.Second
	}
	return c
}

// Stats is a point-in-time aggregate over all sessions, live and finished.
// Counters merges every session's perf.Counters (via Counters.Add); Lat
// merges the per-request virtual-latency histograms.
type Stats struct {
	ActiveSessions int
	TotalSessions  uint64
	OpenHandles    int
	Ops            int64
	Counters       perf.Counters
	Lat            perf.Histogram
}

// Server exports one vfs.FS to any number of concurrent clients. Each
// accepted connection becomes a session owned by a single goroutine with
// its own sim.Ctx; the file system underneath is shared, exactly as a
// kernel FS is shared between processes.
type Server struct {
	fs  vfs.FS
	cfg Config

	mu        sync.Mutex
	listeners []Listener
	sessions  map[uint64]*session
	nextSess  uint64
	total     uint64
	draining  bool

	// finished sessions fold their accounting in here.
	doneCounters perf.Counters
	doneLat      perf.Histogram
	doneOps      int64

	// leaseMu guards the per-ino lease table, the write-in-flight marks
	// and every session's revokeWaiters (lease.go).
	leaseMu sync.Mutex
	leases  map[uint64]*fileLease
	writing map[uint64]int // ino → writes between beginWrite and endWrite
	// spareLeases chains the records whose last holder left, their readers
	// maps emptied, for the next ino leased that has none. A record is
	// taken from here before one is made, so live and spare records
	// together never outnumber the live ones at the table's peak.
	spareLeases *fileLease

	// mapped, when the exported FS tracks memory mappings, gates lease
	// grants: a locally mapped inode is never leased (DAX stores bypass
	// the lease protocol entirely), so those clients run uncached.
	mapped vfs.MapTracker

	wg sync.WaitGroup
}

// New returns a server exporting fs.
func New(fs vfs.FS, cfg Config) *Server {
	s := &Server{
		fs:       fs,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint64]*session),
		leases:   make(map[uint64]*fileLease),
		writing:  make(map[uint64]int),
	}
	if mt, ok := fs.(vfs.MapTracker); ok {
		s.mapped = mt
	}
	if mn, ok := fs.(vfs.MapNotifier); ok {
		// The reverse direction: a mapping attaching locally revokes any
		// leases already out on the inode, exactly like a conflicting
		// writer.
		mn.SetMapHook(func(ino uint64) { s.revokeConflicting(nil, ino, true) })
	}
	return s
}

// FS returns the exported file system.
func (s *Server) FS() vfs.FS { return s.fs }

// Serve accepts connections on l until the listener fails or the server is
// shut down. It returns nil on graceful shutdown. Multiple Serve calls on
// different listeners are allowed.
func (s *Server) Serve(l Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrShutdown
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

func (s *Server) startSession(conn Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	id := s.nextSess
	s.nextSess++
	s.total++
	sess := &session{
		id:            id,
		srv:           s,
		conn:          conn,
		ctx:           sim.NewCtx(sessionThreadBase+int(id), int(id)%s.cfg.CPUs),
		handles:       make(map[uint64]vfs.File),
		reqs:          make(chan request, sessionWindow),
		done:          make(chan struct{}),
		revokeWaiters: make(map[uint64][]chan struct{}),
	}
	sess.ctx.AdvanceTo(s.cfg.BaseNS)
	sess.ctx.Trace = s.cfg.Tracer.NewContext(sess.ctx.Thread)
	s.sessions[id] = sess
	s.wg.Add(1)
	s.mu.Unlock()
	go sess.reader()
	go sess.worker()
	// In-process transports get the synchronous dispatch path: the client
	// end invokes this session directly, skipping a frame each way through
	// the pipe and four goroutine wakeups per RPC. Published last so a
	// client that sees it finds a fully initialised session.
	if dc, ok := conn.(directConn); ok {
		dc.setDirect(&sessionDirect{sess: sess})
	}
}

// Shutdown drains gracefully: listeners close, every session's read side
// is shut so no new requests arrive, the already-pipelined requests are
// answered, handles are closed, and Shutdown returns once every session is
// gone. Safe to call more than once.
func (s *Server) Shutdown() {
	s.ShutdownCtx(context.Background())
}

// ShutdownCtx is Shutdown with a cancellation bound: the graceful drain is
// given until ctx is cancelled — or RevokeTimeout, whichever is sooner — to
// finish; after that every surviving connection is severed outright so a
// wedged session (e.g. a replica stream that stopped reading) cannot block
// shutdown forever. Returns ctx.Err() if the deadline forced the cut, nil
// if the drain finished in time.
func (s *Server) ShutdownCtx(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, sess := range live {
		closeRead(sess.conn)
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	grace := time.NewTimer(s.cfg.RevokeTimeout)
	defer grace.Stop()
	var err error
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-grace.C:
		err = context.DeadlineExceeded
	}
	// Grace expired: sever what is left. Closing the conn unblocks both
	// goroutines of each surviving session, so the final Wait is bounded.
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	<-drained
	return err
}

// Stats aggregates accounting across finished and live sessions.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		ActiveSessions: len(s.sessions),
		TotalSessions:  s.total,
		Ops:            s.doneOps,
	}
	st.Counters.Add(&s.doneCounters)
	st.Lat.Merge(&s.doneLat)
	for _, sess := range s.sessions {
		sess.statsMu.Lock()
		st.Counters.Add(&sess.snapCounters)
		st.Lat.Merge(&sess.snapLat)
		st.Ops += sess.ops
		st.OpenHandles += sess.openHandles
		sess.statsMu.Unlock()
	}
	return st
}

// request is one decoded-but-unprocessed frame.
type request struct {
	id      uint64
	op      op
	payload []byte
}

// session serves one client connection. The worker goroutine owns ctx, the
// handle table and the write side of conn; the reader goroutine owns the
// read side and feeds the bounded reqs channel.
type session struct {
	id   uint64
	srv  *Server
	conn Conn
	ctx  *sim.Ctx

	handles    map[uint64]vfs.File
	nextHandle uint64

	reqs chan request
	done chan struct{} // closed by the worker on exit

	// dmu serialises request execution (sess.ctx, the handle table) across
	// the worker loop and the direct-dispatch path; directStopped marks the
	// session past teardown so late direct calls fall back to the (dead)
	// pipe and surface the usual transport error.
	dmu           sync.Mutex
	directStopped bool

	// wmu serialises frame writes to conn: the worker's responses and
	// other sessions' lease-revoke pushes (pushRevoke) share the write
	// side.
	wmu sync.Mutex
	// revokeWaiters holds, per ino, the channels of requests blocked on
	// this session acking a lease revoke. Guarded by srv.leaseMu.
	revokeWaiters map[uint64][]chan struct{}
	// spareWaiters is the emptied list of the last ino whose waiters were
	// woken, for the next ino's first waiter. Guarded by srv.leaseMu.
	spareWaiters []chan struct{}
	// revokeTimer times this session's waits in revokeConflicting; guarded
	// by dmu (revokeTimer in lease.go).
	revokeTimer *time.Timer

	// statsMu guards the snapshot the server's Stats() reads while the
	// worker is live.
	statsMu      sync.Mutex
	snapCounters perf.Counters
	snapLat      perf.Histogram
	ops          int64
	openHandles  int
}

// reader pulls frames off the connection into the bounded request queue.
// A full queue blocks it — and therefore the transport — which is the
// pipelining backpressure. Any read error (EOF, abrupt client death,
// drain's CloseRead) ends the session's input; close(reqs) lets the worker
// finish what was already pipelined and tear down.
func (sess *session) reader() {
	defer close(sess.reqs)
	var hdr [frameHdrLen]byte
	for {
		id, code, payload, err := readFrame(sess.conn, &hdr)
		if err != nil {
			return
		}
		if op(code) == opLeaseAck {
			// Acks are handled here, out of band: queued behind the worker
			// they could never be processed while the worker itself waits in
			// revokeConflicting, wedging a pair of cross-revoking sessions
			// until the timeout drains one (DESIGN.md §9). leaseAcked only
			// touches leaseMu state, so the reader may call it directly.
			sess.ackLease(id, payload)
			continue
		}
		select {
		case sess.reqs <- request{id: id, op: op(code), payload: payload}:
		case <-sess.done:
			return
		}
	}
}

// ackLease processes an opLeaseAck frame on the reader goroutine: record
// the ack, wake the waiters, reply with zero cost.
func (sess *session) ackLease(id uint64, payload []byte) {
	d := Dec{B: payload}
	ino := d.U64()
	st := statusOK
	if !d.OK() {
		st = statusBadRequest
	} else {
		sess.srv.leaseAcked(sess, ino)
	}
	var out Enc
	out.U64(0)
	if st != statusOK {
		out.Str("bad leaseack payload")
	}
	sess.wmu.Lock()
	WriteFrame(sess.conn, id, uint8(st), out.B)
	sess.wmu.Unlock()
}

// worker processes requests in arrival order and writes every response.
func (sess *session) worker() {
	defer sess.teardown()
	// buf is the session's response buffer: the worker writes every queued
	// request's response, one at a time, so it owns one buffer for all of
	// them.
	var buf []byte
	for req := range sess.reqs {
		sess.dmu.Lock()
		st, frame, stop := sess.serveReq(req, buf)
		sess.dmu.Unlock()
		sess.wmu.Lock()
		err := writeOwnedFrame(sess.conn, req.id, uint8(st), frame)
		sess.wmu.Unlock()
		if buf = frame; cap(buf) > maxKeptBuf {
			buf = nil
		}
		if stop || err != nil {
			return
		}
	}
}

// serveReq executes one request with full per-request accounting and
// returns the finished response frame (header reserved, cost slot filled
// in), encoded into buf when it has the room. buf belongs to the caller:
// the worker's own buffer, or the calling client's on direct dispatch.
// Caller holds sess.dmu.
func (sess *session) serveReq(req request, buf []byte) (st status, frame []byte, stop bool) {
	start := sess.ctx.Now()
	sp := sess.ctx.StartSpan(rpcSpanName(req.op))
	pmw := sess.ctx.Counters.PMWriteBytes
	st, resp, stop := sess.dispatch(req, buf)
	if pm := sess.srv.cfg.PostMutate; pm != nil {
		if delta := sess.ctx.Counters.PMWriteBytes - pmw; delta > 0 {
			// The replication hook runs inside the cost window so the
			// client is charged for synchronous replication time.
			pm(sess.ctx, delta)
		}
	}
	if sp != nil {
		sp.SetAttr("session", strconv.FormatUint(sess.id, 10))
		sp.SetAttr("req", strconv.FormatUint(req.id, 10))
		sp.SetAttr("status", strconv.Itoa(int(st)))
	}
	sess.ctx.EndSpan(sp)
	cost := sess.ctx.Now() - start

	// OK responses arrive from dispatch with the frame header and
	// cost slot already reserved (respEnc), so the frame finishes in
	// place: one buffer from dispatch to transport, no reassembly.
	frame = resp
	if st != statusOK || frame == nil {
		out := respEnc(buf, 0)
		if st != statusOK {
			out.Bytes(resp) // a failed request's payload is its message, as Str encodes it
		}
		frame = out.B
	}
	binary.LittleEndian.PutUint64(frame[frameHdrLen:], uint64(cost))

	sess.statsMu.Lock()
	sess.snapCounters = *sess.ctx.Counters
	sess.snapLat.Record(cost)
	sess.ops++
	sess.openHandles = len(sess.handles)
	sess.statsMu.Unlock()
	return st, frame, stop
}

// sessionDirect is the synchronous dispatch entry point a session
// publishes on direct-capable transports (the in-memory pipe). The client
// runs the server's request path on its own goroutine and receives the
// response frame as the return value; the pipe carries only lease-revoke
// pushes in the other direction.
type sessionDirect struct{ sess *session }

// call executes one request synchronously and returns the response frame,
// encoded into the caller's buf when it has the room: past the reserved
// header it holds exactly what ReadFrame would have yielded (cost u64
// first). The session keeps no reference to payload or frame, so several
// client goroutines may be in flight, each on its own buffers. ok=false
// means the direct path is gone (session tore down); the caller must fall
// back to the wire.
func (sd *sessionDirect) call(o op, payload, buf []byte) (st status, frame []byte, ok bool) {
	sess := sd.sess
	if o == opLeaseAck {
		// Acks stay out of band, exactly like the reader path: a request
		// blocked in revokeConflicting holds dmu, and the ack that
		// unblocks it may come from this very client's revoke handler.
		d := Dec{B: payload}
		ino := d.U64()
		out := respEnc(buf, 0)
		binary.LittleEndian.PutUint64(out.B[frameHdrLen:], 0)
		if !d.OK() {
			st = statusBadRequest
			out.Str("bad leaseack payload")
		} else {
			sess.srv.leaseAcked(sess, ino)
		}
		return st, out.B, true
	}
	sess.dmu.Lock()
	if sess.directStopped {
		sess.dmu.Unlock()
		return 0, nil, false
	}
	st, frame, stop := sess.serveReq(request{op: o, payload: payload}, buf)
	// A detach over the direct path must tear the session down just like
	// one over the wire: kill the pipe so reader and worker exit and run
	// teardown. The response still returns to the caller synchronously.
	sess.directStopped = stop
	sess.dmu.Unlock()
	if stop {
		sess.conn.Close()
	}
	return st, frame, true
}

// teardown runs exactly once per session, whatever killed it. Open handles
// are closed with a *fresh* sim.Ctx: the session ctx conceptually died
// with the client (and may sit mid-request in virtual time), while handle
// cleanup is the server's own work — like the kernel releasing a crashed
// process's file table — and must leave no inode lock in vfs.LockTable
// orphaned for the next client.
func (sess *session) teardown() {
	// Retire the direct path first: unpublish the entry point, then take
	// dmu so any direct call already in flight finishes (and is answered)
	// before the handle table goes away.
	if dc, ok := sess.conn.(directConn); ok {
		dc.setDirect(nil)
	}
	sess.dmu.Lock()
	sess.directStopped = true
	sess.dmu.Unlock()
	close(sess.done)
	// Leases die with the session: drop them all and wake any request
	// blocked on a revoke this session will never ack.
	sess.srv.dropSessionLeases(sess)
	cleanup := sim.NewCtx(cleanupThreadBase+int(sess.id), sess.ctx.CPU)
	cleanup.AdvanceTo(sess.ctx.Now())
	for _, f := range sess.handles {
		f.Close(cleanup) // best-effort: a degraded FS may refuse, that's fine
	}
	sess.handles = nil
	sess.conn.Close()

	sess.statsMu.Lock()
	sess.snapCounters = *sess.ctx.Counters
	sess.snapCounters.Add(cleanup.Counters)
	counters := sess.snapCounters
	lat := sess.snapLat
	ops := sess.ops
	sess.openHandles = 0
	sess.statsMu.Unlock()

	s := sess.srv
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.doneCounters.Add(&counters)
	s.doneLat.Merge(&lat)
	s.doneOps += ops
	s.mu.Unlock()
	s.wg.Done()
}

// respEnc starts a response in buf — a fresh buffer if buf cannot hold the
// fixed span plus extra payload bytes — with the frame header and the u64
// cost slot reserved, so the frame is finished in place without copying
// the payload again. The reserved bytes are stale until serveReq and
// writeOwnedFrame fill them in.
func respEnc(buf []byte, extra int) Enc {
	if need := frameHdrLen + 8 + extra; cap(buf) < need {
		buf = make([]byte, need+16)
	}
	return Enc{B: buf[:frameHdrLen+8]}
}

// rpcSpanNames pre-concatenates trace span labels per opcode; building
// "rpc."+op.String() per request allocated on every RPC even with
// tracing off.
var rpcSpanNames = func() (n [len(opNames)]string) {
	for o, name := range opNames {
		if name != "" {
			n[o] = "rpc." + name
		}
	}
	return
}()

func rpcSpanName(o op) string {
	if int(o) < len(rpcSpanNames) && rpcSpanNames[o] != "" {
		return rpcSpanNames[o]
	}
	return "rpc." + o.String()
}

// fail formats an error into (status, message-payload).
func fail(err error) (status, []byte, bool) {
	st, msg := statusFor(err)
	return st, []byte(msg), false
}

// dispatch executes one request against the exported FS. It returns the
// wire status, the response frame started with respEnc(buf, …) (nil for an
// empty response; message text when the status is not OK), and whether the
// session should stop (client detach).
func (sess *session) dispatch(req request, buf []byte) (status, []byte, bool) {
	d := Dec{B: req.payload}
	fs := sess.srv.fs
	ctx := sess.ctx

	switch req.op {
	case opHello:
		ver := d.U32()
		if !d.OK() || ver != ProtoVersion {
			return statusBadRequest, []byte("protocol version mismatch"), false
		}
		e := respEnc(buf, 0)
		e.U32(ProtoVersion)
		e.Str(fs.Name())
		e.U8(uint8(fs.Mode()))
		e.U32(uint32(sess.srv.cfg.CPUs))
		e.U32(sessionWindow)
		return statusOK, e.B, false

	case opOpen, opCreate:
		path := d.Str()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		var f vfs.File
		var err error
		if req.op == opOpen {
			f, err = fs.Open(ctx, path)
		} else {
			f, err = fs.Create(ctx, path)
		}
		if err != nil {
			return fail(err)
		}
		// A conflicting open forces the current write-lease holder to
		// flush: anything this session reads through the new handle must
		// reflect every write the holder's cache buffered.
		sess.srv.revokeConflicting(sess, f.Ino(), false)
		h := sess.nextHandle
		sess.nextHandle++
		sess.handles[h] = f
		e := respEnc(buf, 0)
		e.U64(h)
		e.U64(f.Ino())
		e.I64(f.Size())
		return statusOK, e.B, false

	case opMkdir, opUnlink, opRmdir:
		path := d.Str()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		var err error
		switch req.op {
		case opMkdir:
			err = fs.Mkdir(ctx, path)
		case opUnlink:
			err = fs.Unlink(ctx, path)
		case opRmdir:
			err = fs.Rmdir(ctx, path)
		}
		if err != nil {
			return fail(err)
		}
		return statusOK, nil, false

	case opRename:
		oldPath, newPath := d.Str(), d.Str()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if err := fs.Rename(ctx, oldPath, newPath); err != nil {
			return fail(err)
		}
		return statusOK, nil, false

	case opStat:
		path := d.Str()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		fi, err := fs.Stat(ctx, path)
		if err != nil {
			return fail(err)
		}
		// A write-lease holder may have buffered size-extending writes;
		// flush them so the stat reports the coherent size.
		if sess.srv.revokeConflicting(sess, fi.Ino, false) > 0 {
			if fi2, err2 := fs.Stat(ctx, path); err2 == nil {
				fi = fi2
			}
		}
		e := respEnc(buf, 0)
		e.U64(fi.Ino)
		e.I64(fi.Size)
		e.U8(b2u8(fi.IsDir))
		e.U32(uint32(fi.Nlink))
		return statusOK, e.B, false

	case opReadDir:
		path := d.Str()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		ents, err := fs.ReadDir(ctx, path)
		if err != nil {
			return fail(err)
		}
		e := respEnc(buf, 0)
		e.U32(uint32(len(ents)))
		for _, ent := range ents {
			e.Str(ent.Name)
			e.U64(ent.Ino)
			e.U8(b2u8(ent.IsDir))
		}
		return statusOK, e.B, false

	case opStatFS:
		sfs := fs.StatFS(ctx)
		e := respEnc(buf, 0)
		e.I64(sfs.TotalBlocks)
		e.I64(sfs.FreeBlocks)
		e.I64(sfs.FreeAligned2M)
		e.I64(sfs.Files)
		return statusOK, e.B, false

	case opRead:
		h, off, n := d.U64(), d.I64(), d.U32()
		f := sess.handles[h]
		if !d.OK() || n > maxIO {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		sess.srv.revokeConflicting(sess, f.Ino(), false)
		// Read straight into the response frame: the length prefix slot
		// is filled in after the read, so the data is never copied
		// between a scratch buffer and the payload.
		e := respEnc(buf, 4+int(n))
		hdr := len(e.B)
		got, err := f.ReadAt(ctx, e.B[hdr+4:hdr+4+int(n)], off)
		if err != nil {
			return fail(err)
		}
		e.U32(uint32(got))
		e.B = e.B[:hdr+4+got]
		return statusOK, e.B, false

	case opWrite, opAppend:
		h := d.U64()
		var off int64
		if req.op == opWrite {
			off = d.I64()
		}
		data := d.Bytes()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		sess.srv.beginWrite(sess, f.Ino())
		var n int
		var err error
		if req.op == opWrite {
			n, err = f.WriteAt(ctx, data, off)
		} else {
			n, err = f.Append(ctx, data)
		}
		sess.srv.endWrite(f.Ino())
		if err != nil {
			return fail(err)
		}
		e := respEnc(buf, 0)
		e.U32(uint32(n))
		e.I64(f.Size())
		return statusOK, e.B, false

	case opTruncate:
		h, size := d.U64(), d.I64()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		sess.srv.beginWrite(sess, f.Ino())
		err := f.Truncate(ctx, size)
		sess.srv.endWrite(f.Ino())
		if err != nil {
			return fail(err)
		}
		e := respEnc(buf, 0)
		e.I64(f.Size())
		return statusOK, e.B, false

	case opFallocate:
		h, off, n := d.U64(), d.I64(), d.I64()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		sess.srv.beginWrite(sess, f.Ino())
		err := f.Fallocate(ctx, off, n)
		sess.srv.endWrite(f.Ino())
		if err != nil {
			return fail(err)
		}
		e := respEnc(buf, 0)
		e.I64(f.Size())
		return statusOK, e.B, false

	case opFsync:
		h := d.U64()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		if err := f.Fsync(ctx); err != nil {
			return fail(err)
		}
		return statusOK, nil, false

	case opCloseHandle:
		h := d.U64()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		delete(sess.handles, h)
		if err := f.Close(ctx); err != nil {
			return fail(err)
		}
		return statusOK, nil, false

	case opSetXattr:
		h, name, val := d.U64(), d.Str(), d.Bytes()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		if err := f.SetXattr(ctx, name, val); err != nil {
			return fail(err)
		}
		return statusOK, nil, false

	case opGetXattr:
		h, name := d.U64(), d.Str()
		f := sess.handles[h]
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		val, ok := f.GetXattr(ctx, name)
		e := respEnc(buf, 0)
		e.U8(b2u8(ok))
		e.Bytes(val)
		return statusOK, e.B, false

	case opLease:
		h, mode := d.U64(), d.U8()
		f := sess.handles[h]
		if !d.OK() || mode > leaseWrite {
			return statusBadRequest, nil, false
		}
		if f == nil {
			return statusBadHandle, nil, false
		}
		granted := true
		if mode == leaseNone {
			sess.srv.releaseLease(sess, f.Ino())
		} else {
			granted = sess.srv.acquireLease(sess, f.Ino(), mode == leaseWrite)
		}
		e := respEnc(buf, 0)
		e.U8(b2u8(granted))
		return statusOK, e.B, false

	case opLeaseAck:
		ino := d.U64()
		if !d.OK() {
			return statusBadRequest, nil, false
		}
		sess.srv.leaseAcked(sess, ino)
		return statusOK, nil, false

	case opDetach:
		return statusOK, nil, true
	}
	return statusBadRequest, []byte("unknown opcode"), false
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
