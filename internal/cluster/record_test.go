package cluster

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// fixRecordCRC recomputes the trailer CRC of a single encoded record after
// a test mutated its header.
func fixRecordCRC(b []byte) {
	body := b[:len(b)-recTrailerSize]
	le.PutUint32(b[len(b)-recTrailerSize:], crc32.ChecksumIEEE(body))
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecStore, Seq: 1, Off: 0, N: 5, Data: []byte("hello")},
		{Type: RecStore, Seq: 2, Off: 1 << 20, N: 0, Data: nil},
		{Type: RecZero, Seq: 3, Off: 4096, N: 8192},
		{Type: RecDiscard, Seq: 4, Off: 1 << 21, N: 1 << 21},
		{Type: RecStore, Seq: 0 /* unsequenced resync */, Off: 262144, N: 3, Data: []byte{0, 1, 2}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	for i := range recs {
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		want := recs[i]
		if got.Type != want.Type || got.Seq != want.Seq || got.Off != want.Off || got.N != want.N || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		if enc := len(AppendRecord(nil, &want)); n != enc {
			t.Fatalf("record %d: consumed %d want %d", i, n, enc)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(buf))
	}
}

// TestRecordTruncation decodes every proper prefix of an encoded record:
// each must fail cleanly with ErrShortRecord or ErrBadRecord, never panic.
func TestRecordTruncation(t *testing.T) {
	r := Record{Type: RecStore, Seq: 7, Off: 12345, N: 16, Data: []byte("0123456789abcdef")}
	full := AppendRecord(nil, &r)
	for cut := 0; cut < len(full); cut++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("cut=%d: panic: %v", cut, p)
				}
			}()
			_, _, err := DecodeRecord(full[:cut])
			if err == nil {
				t.Fatalf("cut=%d: truncated record decoded successfully", cut)
			}
			if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("cut=%d: unexpected error %v", cut, err)
			}
		}()
	}
}

// TestRecordCorruption flips every single bit of an encoded record: each
// mutation must either fail decode (almost always, via CRC) or decode to
// the identical record (impossible for a single flip, but the invariant we
// assert is the safe one: no panic and no silently wrong record).
func TestRecordCorruption(t *testing.T) {
	r := Record{Type: RecZero, Seq: 99, Off: 8192, N: 4096}
	full := AppendRecord(nil, &r)
	for bit := 0; bit < len(full)*8; bit++ {
		mut := append([]byte(nil), full...)
		mut[bit/8] ^= 1 << (bit % 8)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("bit=%d: panic: %v", bit, p)
				}
			}()
			got, _, err := DecodeRecord(mut)
			if err == nil {
				t.Fatalf("bit=%d: corrupted record decoded as %+v", bit, got)
			}
		}()
	}
}

// TestRecordGarbage feeds random-ish garbage and pathological headers.
func TestRecordGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		bytes.Repeat([]byte{0xFF}, recHeaderSize+recTrailerSize),
		bytes.Repeat([]byte{0x00}, recHeaderSize+recTrailerSize),
		// Valid magic, absurd dlen.
		func() []byte {
			b := make([]byte, recHeaderSize+recTrailerSize)
			le.PutUint16(b, recMagic)
			b[2] = RecStore
			le.PutUint32(b[28:], 0xFFFFFFF0)
			return b
		}(),
		// Valid magic, type out of range.
		func() []byte {
			b := make([]byte, recHeaderSize+recTrailerSize)
			le.PutUint16(b, recMagic)
			b[2] = 200
			return b
		}(),
		// The first type past RecDiscard, CRC intact: a well-formed
		// record of no known type.
		AppendRecord(nil, &Record{Type: RecDiscard + 1, Seq: 5, Off: 42}),
	}
	for i, c := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("case %d: panic: %v", i, p)
				}
			}()
			if _, _, err := DecodeRecord(c); err == nil {
				t.Fatalf("case %d: garbage decoded successfully", i)
			}
		}()
	}
}

// TestRecordStoreLengthMismatch ensures a Store whose N disagrees with its
// payload length is rejected (the replica trusts N for bounds checks).
func TestRecordStoreLengthMismatch(t *testing.T) {
	r := Record{Type: RecStore, Seq: 1, Off: 0, N: 4, Data: []byte("abcd")}
	full := AppendRecord(nil, &r)
	// Rewrite N to 8 and fix the CRC so only the semantic check can catch it.
	le.PutUint64(full[20:], 8)
	fixRecordCRC(full)
	if _, _, err := DecodeRecord(full); err == nil {
		t.Fatal("store with N != len(Data) decoded successfully")
	}
}

// TestReplicatorBlocksRecording: a crash recording refuses a primary's
// device rather than silently detach its replicator, which keeps logging
// the primary's stores afterwards.
func TestReplicatorBlocksRecording(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicator(fs, ReplicatorConfig{})
	r.Attach()
	defer r.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Record on a replicated device did not panic")
			}
		}()
		dev.Record(func() error { return nil })
	}()
	before := r.Stats().RecordsLogged
	dev.WriteAt([]byte{1}, dev.Size()-1)
	if got := r.Stats().RecordsLogged; got != before+1 {
		t.Fatalf("replicator logged %d records for one store after the refused Record", got-before)
	}
}
