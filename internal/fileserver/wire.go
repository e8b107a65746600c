// Package fileserver is the network serving layer of the reproduction: a
// session-oriented file server that exports any vfs.FS over a compact
// length-prefixed wire protocol, plus a client that implements vfs.FS so
// unmodified workloads can run against a remote mount.
//
// Frames are little-endian:
//
//	request:  u32 frameLen | u64 reqID | u8 opcode | payload
//	response: u32 frameLen | u64 reqID | u8 status | u64 costNS | payload
//
// frameLen counts the bytes after the length field itself. costNS is the
// virtual time the server charged the session for the request; the client
// advances the calling sim.Ctx by it, so virtual-time accounting (and
// therefore every throughput number in the repository) stays meaningful
// across the wire. Error responses carry a human-readable message as their
// payload; the status byte alone decides which vfs sentinel the client
// returns, so errors.Is-style checks work unmodified on the far side.
package fileserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/vfs"
	"repro/internal/winefs"
)

// ProtoVersion is bumped on any incompatible wire change; the handshake
// rejects mismatched clients instead of misparsing their frames.
// Version 2 added the lease protocol (opLease/opLeaseAck/statusRevoke).
// Version 3 appended the server epoch to the hello response, so a client
// can tell a promoted primary from a stale one.
// Version 4 dropped it again: no client read it, and only the replication
// link fences epochs.
const ProtoVersion = 4

// maxFrame bounds a single frame so a corrupt or hostile length prefix
// cannot make the peer allocate unbounded memory.
const maxFrame = 16 << 20

// maxIO is the largest read or write carried by one frame; the client
// splits bigger requests into maxIO pieces.
const maxIO = 4 << 20

// op identifies a request type.
type op uint8

const (
	opHello op = iota + 1
	opOpen
	opCreate
	opMkdir
	opUnlink
	opRmdir
	opRename
	opStat
	opReadDir
	opStatFS
	opRead
	opWrite
	opAppend
	opTruncate
	opFallocate
	opFsync
	opCloseHandle
	opSetXattr
	opGetXattr
	opDetach
	// opLease acquires or releases a cache lease on an open handle:
	// payload is handle u64 | mode u8 (leaseNone releases). The response
	// carries granted u8 — the server may refuse (mode stays whatever it
	// was) rather than wait forever on an unresponsive conflicting holder.
	opLease
	// opLeaseAck is the client's reply to a statusRevoke push: payload is
	// the revoked ino u64. It confirms dirty state has been flushed and
	// every cached page for the ino dropped, letting the blocked
	// conflicting request proceed.
	opLeaseAck
)

// opNames names each opcode for traces and logs; index is the op value.
var opNames = [...]string{
	opHello: "hello", opOpen: "open", opCreate: "create", opMkdir: "mkdir",
	opUnlink: "unlink", opRmdir: "rmdir", opRename: "rename", opStat: "stat",
	opReadDir: "readdir", opStatFS: "statfs", opRead: "read", opWrite: "write",
	opAppend: "append", opTruncate: "truncate", opFallocate: "fallocate",
	opFsync: "fsync", opCloseHandle: "close", opSetXattr: "setxattr",
	opGetXattr: "getxattr", opDetach: "detach", opLease: "lease",
	opLeaseAck: "leaseack",
}

func (o op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// status is the first byte of every response. Each code except statusError
// maps to exactly one typed error on the client, so the PR 1 robustness
// ladder (EIO, read-only degradation, ErrTxOverflow) survives the wire.
type status uint8

const (
	statusOK status = iota
	statusNotExist
	statusExist
	statusNotDir
	statusIsDir
	statusNotEmpty
	statusNoSpace
	statusClosed
	statusReadOnly
	statusIO
	statusTxOverflow
	statusBadHandle
	statusBadRequest
	statusShutdown
	statusError // anything unmapped; message travels in the payload
)

// statusRevoke is not a response status: it marks a server-initiated push
// frame revoking the session's lease on the ino carried in the frame's id
// field. It sits far above the response range so a client demultiplexer
// can tell pushes from responses by the code byte alone.
const statusRevoke uint8 = 240

// Lease modes carried by opLease.
const (
	leaseNone  uint8 = 0 // release
	leaseRead  uint8 = 1 // shared: cached reads stay coherent
	leaseWrite uint8 = 2 // exclusive: write-back caching allowed
)

// wireErrs pairs every mapped sentinel with its status code. Order matters
// only in that it is scanned with errors.Is, which unwraps, so wrapped
// errors (winefs wraps vfs.ErrIO with the media detail) map correctly.
var wireErrs = []struct {
	err error
	st  status
}{
	{vfs.ErrNotExist, statusNotExist},
	{vfs.ErrExist, statusExist},
	{vfs.ErrNotDir, statusNotDir},
	{vfs.ErrIsDir, statusIsDir},
	{vfs.ErrNotEmpty, statusNotEmpty},
	{vfs.ErrNoSpace, statusNoSpace},
	{vfs.ErrClosed, statusClosed},
	{vfs.ErrReadOnly, statusReadOnly},
	{vfs.ErrIO, statusIO},
	{winefs.ErrTxOverflow, statusTxOverflow},
}

// Errors introduced by the serving layer itself.
var (
	// ErrConnClosed reports that the transport died (or was shut down)
	// before the response arrived.
	ErrConnClosed = errors.New("fileserver: connection closed")
	// ErrServerGone reports that the server side dropped the transport
	// while the client still wanted it — a crash or kill, as opposed to a
	// close the client initiated itself. It wraps ErrConnClosed so
	// existing errors.Is(err, ErrConnClosed) checks keep matching;
	// callers match ErrServerGone specifically to tell a dead primary
	// from a local protocol bug.
	ErrServerGone = fmt.Errorf("fileserver: server gone: %w", ErrConnClosed)
	// ErrBadHandle reports a request naming a handle the session never
	// opened (or already closed).
	ErrBadHandle = errors.New("fileserver: bad file handle")
	// ErrBadRequest reports a malformed or unknown request frame.
	ErrBadRequest = errors.New("fileserver: malformed request")
	// ErrShutdown reports that the server is draining and accepts no new
	// connections.
	ErrShutdown = errors.New("fileserver: server shutting down")
)

// statusFor maps an error from the exported FS onto a wire status.
func statusFor(err error) (status, string) {
	if err == nil {
		return statusOK, ""
	}
	for _, w := range wireErrs {
		if errors.Is(err, w.err) {
			return w.st, err.Error()
		}
	}
	return statusError, err.Error()
}

// errFor maps a wire status back onto the matching sentinel. Known codes
// return the bare vfs error so workload code comparing with == (the
// repository's idiom for ErrExist and friends) works against a remote
// mount exactly as against a local one.
func errFor(st status, msg string) error {
	for _, w := range wireErrs {
		if w.st == st {
			return w.err
		}
	}
	switch st {
	case statusOK:
		return nil
	case statusBadHandle:
		return ErrBadHandle
	case statusBadRequest:
		return ErrBadRequest
	case statusShutdown:
		return ErrShutdown
	}
	if msg == "" {
		msg = "remote error"
	}
	return fmt.Errorf("fileserver: remote: %s", msg)
}

// frameHdrLen is the wire header every frame starts with: u32 length,
// u64 id, u8 code.
const frameHdrLen = 13

// maxKeptBuf is the largest frame buffer a client or a session keeps for
// its next call; a bigger one (bulk I/O, up to maxIO) is left to the
// collector, so an idle connection holds kilobytes, not megabytes.
const maxKeptBuf = 64 << 10

// writeOwnedFrame finishes an in-place frame whose first frameHdrLen
// bytes were reserved by the encoder (see callBuf/respEnc) and writes it
// with zero re-assembly copies. Both transports copy the bytes out during
// Write, so buf stays the caller's.
func writeOwnedFrame(w io.Writer, id uint64, code uint8, buf []byte) error {
	binary.LittleEndian.PutUint32(buf[0:], uint32(9+len(buf)-frameHdrLen))
	binary.LittleEndian.PutUint64(buf[4:], id)
	buf[12] = code
	_, err := w.Write(buf)
	return err
}

// frameBufPool recycles WriteFrame assembly buffers; the transports below
// (TCP, buffered pipe) all copy the bytes out during Write, so the buffer
// can be reused the moment Write returns.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// WriteFrame assembles one frame and writes it with a single Write call.
// That keeps concurrent writers from interleaving on TCP but not on the
// pipe, whose Write of a frame bigger than its free room waits for the
// reader between pieces; every caller serialises its own writes (see
// Conn). Exported so internal/cluster can reuse the framing for its
// replication stream instead of inventing a second length-prefixed
// protocol.
func WriteFrame(w io.Writer, id uint64, code uint8, payload []byte) error {
	bp := frameBufPool.Get().(*[]byte)
	buf := *bp
	if need := 13 + len(payload); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:13+len(payload)]
	binary.LittleEndian.PutUint32(buf[0:], uint32(9+len(payload)))
	binary.LittleEndian.PutUint64(buf[4:], id)
	buf[12] = code
	copy(buf[13:], payload)
	_, err := w.Write(buf)
	*bp = buf[:0]
	frameBufPool.Put(bp)
	return err
}

// ReadFrame reads one frame; any transport error (including EOF) is
// returned verbatim for the caller to treat as session death.
//
// The length prefix and the 9-byte id+code header are fetched with one
// ReadFull: every valid frame has at least 9 bytes after the prefix, so
// the merged read never overshoots a frame boundary. (A corrupt length
// < 9 is detected after the merged read; the connection is torn down
// either way, so the 9 bytes over-consumed on that path don't matter.)
func ReadFrame(r io.Reader) (id uint64, code uint8, payload []byte, err error) {
	var hdr [frameHdrLen]byte
	return readFrame(r, &hdr)
}

// readFrame is ReadFrame reading the header into hdr: a connection's read
// loop owns one, where ReadFrame's own escapes to the heap on every frame.
func readFrame(r io.Reader, hdr *[frameHdrLen]byte) (id uint64, code uint8, payload []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 9 || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("fileserver: bad frame length %d", n)
	}
	id = binary.LittleEndian.Uint64(hdr[4:12])
	code = hdr[12]
	payload = make([]byte, n-9)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return id, code, payload, nil
}

// Enc builds a payload in B. Enc and Dec are the one payload codec of this
// wire; the packages that speak frames of their own over it (internal/cluster's
// replication stream) encode with them too.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

func (e *Enc) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.B = append(e.B, b[:]...)
}

func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.B = append(e.B, b[:]...)
}

func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

func (e *Enc) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.B = append(e.B, p...)
}

func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Dec consumes the payload B. Any out-of-bounds read sets bad; callers check
// OK() once at the end instead of after every field.
type Dec struct {
	B   []byte
	pos int
	bad bool
}

func (d *Dec) take(n int) []byte {
	if d.bad || n < 0 || d.pos+n > len(d.B) {
		d.bad = true
		return nil
	}
	p := d.B[d.pos : d.pos+n]
	d.pos += n
	return p
}

func (d *Dec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

func (d *Dec) Bytes() []byte {
	n := d.U32()
	return d.take(int(n))
}

func (d *Dec) Str() string { return string(d.Bytes()) }

// OK reports whether every read so far stayed in bounds.
func (d *Dec) OK() bool { return !d.bad }
