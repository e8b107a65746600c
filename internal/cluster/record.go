// Package cluster replicates a primary winefsd onto N replica daemons.
//
// The replication unit is the primary device's physical write stream —
// every pmem store, zero and discard, tapped via pmem.Observer. Records
// are applied in order, so fences need no record of their own: a replica
// that has applied seq n holds every store the primary issued before it.
// Records are sequence-numbered, framed over the fileserver wire protocol,
// and applied by replicas to their own simulated devices, so a replica's
// image converges byte-for-byte on the primary's and can be promoted
// through the ordinary winefs.Mount recovery path, exactly as a crashed
// primary would remount itself.
//
// Robustness model (DESIGN.md §10): bounded in-memory record ring with
// resync (snapshot streaming) when a replica falls behind it, per-link
// retry with exponential backoff and jitter, heartbeat failure detection,
// epoch-numbered primaries so stale ones are fenced, and a degraded mode
// where the primary keeps serving with divergence logged rather than
// blocking on dead replicas.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record types. RecStore/RecZero/RecDiscard mirror the three mutating
// entry points of pmem.Device.
const (
	RecStore uint8 = iota + 1
	RecZero
	RecDiscard
)

// recMagic guards against misframed byte streams: a decoder landing at a
// wrong offset fails loudly instead of applying garbage.
const recMagic uint16 = 0xCB07

// recHeaderSize is the fixed prefix before the data payload:
//
//	magic u16 | type u8 | reserved u8 | seq u64 | off i64 | n i64 | dlen u32
const recHeaderSize = 2 + 1 + 1 + 8 + 8 + 8 + 4

// recTrailerSize is the CRC32 (IEEE) over header+data.
const recTrailerSize = 4

// maxRecData bounds one record's payload so a corrupt length cannot make a
// replica allocate unbounded memory. Stores bigger than this are split by
// the observer before encoding.
const maxRecData = 8 << 20

// Record is one replicated mutation.
type Record struct {
	// Type is one of RecStore/RecZero/RecDiscard.
	Type uint8
	// Seq is the primary-assigned sequence number, contiguous from 1.
	// Seq 0 marks an unsequenced resync record (snapshot chunk), applied
	// without gap checking.
	Seq uint64
	// Off is the device offset.
	Off int64
	// N is the range length. For RecStore it must equal len(Data).
	N int64
	// Data is the stored bytes (RecStore only).
	Data []byte
}

// ErrBadRecord reports a record that failed structural validation or its
// CRC. The decoder never panics: torn, truncated and bit-flipped inputs
// all land here.
var ErrBadRecord = errors.New("cluster: bad replication record")

// ErrShortRecord reports a byte stream that ends mid-record; the caller
// should read more bytes and retry.
var ErrShortRecord = errors.New("cluster: truncated replication record")

// le is the byte order of every integer in a record.
var le = binary.LittleEndian

// EncodedLen reports the wire size of r.
func (r *Record) EncodedLen() int {
	return recHeaderSize + len(r.Data) + recTrailerSize
}

// AppendRecord encodes r onto buf and returns the extended slice.
func AppendRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	var hdr [recHeaderSize]byte
	le.PutUint16(hdr[0:], recMagic)
	hdr[2] = r.Type
	hdr[3] = 0
	le.PutUint64(hdr[4:], r.Seq)
	le.PutUint64(hdr[12:], uint64(r.Off))
	le.PutUint64(hdr[20:], uint64(r.N))
	le.PutUint32(hdr[28:], uint32(len(r.Data)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Data...)
	crc := crc32.ChecksumIEEE(buf[start:])
	var tr [recTrailerSize]byte
	le.PutUint32(tr[:], crc)
	return append(buf, tr[:]...)
}

// DecodeRecord decodes one record from the front of b, returning the
// record and the bytes consumed. It validates magic, type, length bounds
// and CRC; malformed input returns ErrBadRecord (or ErrShortRecord when b
// simply ends early) — never a panic, whatever the bytes are.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, ErrShortRecord
	}
	if le.Uint16(b) != recMagic {
		return Record{}, 0, fmt.Errorf("%w: bad magic %#x", ErrBadRecord, le.Uint16(b))
	}
	r := Record{
		Type: b[2],
		Seq:  le.Uint64(b[4:]),
		Off:  int64(le.Uint64(b[12:])),
		N:    int64(le.Uint64(b[20:])),
	}
	dlen := le.Uint32(b[28:])
	if r.Type < RecStore || r.Type > RecDiscard {
		return Record{}, 0, fmt.Errorf("%w: unknown type %d", ErrBadRecord, r.Type)
	}
	if dlen > maxRecData {
		return Record{}, 0, fmt.Errorf("%w: data length %d exceeds limit", ErrBadRecord, dlen)
	}
	if r.Type != RecStore && dlen != 0 {
		return Record{}, 0, fmt.Errorf("%w: type %d carries data", ErrBadRecord, r.Type)
	}
	total := recHeaderSize + int(dlen) + recTrailerSize
	if len(b) < total {
		return Record{}, 0, ErrShortRecord
	}
	body := b[:recHeaderSize+int(dlen)]
	want := le.Uint32(b[recHeaderSize+int(dlen):])
	if crc32.ChecksumIEEE(body) != want {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrBadRecord)
	}
	if r.Type == RecStore {
		if r.N != int64(dlen) {
			return Record{}, 0, fmt.Errorf("%w: store length %d != data %d", ErrBadRecord, r.N, dlen)
		}
		r.Data = append([]byte(nil), b[recHeaderSize:recHeaderSize+int(dlen)]...)
	}
	if r.N < 0 || r.Off < 0 {
		return Record{}, 0, fmt.Errorf("%w: negative range", ErrBadRecord)
	}
	return r, total, nil
}
