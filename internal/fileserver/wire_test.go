package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/vfs"
	"repro/internal/winefs"
)

// embeddedConn wraps a Conn the way crashmonkey's tornConn does: by
// embedding, so only Conn's own methods show through.
type embeddedConn struct{ Conn }

// TestFrameRoundTrip sends frames through a bytes.Buffer and through the
// in-memory pipe, from a bare and from a wrapped writer end. Every
// transport carries a frame bigger than the pipe's buffer, accepts the
// largest legal payload and rejects one byte more.
func TestFrameRoundTrip(t *testing.T) {
	big := make([]byte, bufPipeMax*5/2)
	for i := range big {
		big[i] = byte(i * 7)
	}
	largest := make([]byte, maxFrame-9) // frameLen counts id and code too
	transports := []struct {
		name string
		// pair returns the ends; a nil closeRead means the transport is a
		// bytes.Buffer, written before it is read.
		pair func() (w io.Writer, r io.Reader, closeRead func())
	}{
		{"buffer", func() (io.Writer, io.Reader, func()) {
			var buf bytes.Buffer
			return &buf, &buf, nil
		}},
		{"pipe", func() (io.Writer, io.Reader, func()) {
			a, b := pipePair()
			return a, b, func() { b.Close() }
		}},
		{"pipe-embedded", func() (io.Writer, io.Reader, func()) {
			a, b := pipePair()
			return embeddedConn{a}, b, func() { b.Close() }
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			w, r, closeRead := tr.pair()
			// send writes one frame, on its own goroutine when the
			// transport's reader must drain concurrently.
			send := func(id uint64, payload []byte) <-chan error {
				werr := make(chan error, 1)
				if closeRead == nil {
					werr <- WriteFrame(w, id, uint8(opRead), payload)
				} else {
					go func() { werr <- WriteFrame(w, id, uint8(opRead), payload) }()
				}
				return werr
			}
			for i, payload := range [][]byte{[]byte("hello, wire"), big, largest} {
				werr := send(uint64(42+i), payload)
				id, code, got, err := ReadFrame(r)
				if err != nil {
					t.Fatalf("ReadFrame of %d bytes: %v", len(payload), err)
				}
				if err := <-werr; err != nil {
					t.Fatalf("WriteFrame of %d bytes: %v", len(payload), err)
				}
				if id != uint64(42+i) || op(code) != opRead || !bytes.Equal(got, payload) {
					t.Fatalf("round trip of %d bytes = (%d, %d, %d bytes)", len(payload), id, code, len(got))
				}
			}
			werr := send(1, append(largest, 0))
			if _, _, _, err := ReadFrame(r); err == nil {
				t.Fatalf("payload of %d bytes accepted, want the length bound", len(largest)+1)
			}
			if closeRead != nil {
				// The writer is still blocked on the rest of the frame.
				closeRead()
			}
			<-werr
		})
	}
}

func TestFrameRejectsHostileLength(t *testing.T) {
	// A corrupt length prefix must not cause a giant allocation.
	buf := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, _, err := ReadFrame(buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	buf = bytes.NewBuffer([]byte{1, 0, 0, 0})
	if _, _, _, err := ReadFrame(buf); err == nil {
		t.Fatal("undersized frame accepted")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(1 << 20)
	e.U64(1 << 40)
	e.I64(-5)
	e.Str("päth/σ")
	e.Bytes([]byte{1, 2, 3})
	d := Dec{B: e.B}
	if d.U8() != 7 || d.U32() != 1<<20 || d.U64() != 1<<40 || d.I64() != -5 {
		t.Fatal("numeric round trip failed")
	}
	if d.Str() != "päth/σ" || !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("string/bytes round trip failed")
	}
	if !d.OK() {
		t.Fatal("Dec reported bad on valid payload")
	}
	// Reading past the end flips bad instead of panicking.
	if d.U64() != 0 || d.OK() {
		t.Fatal("out-of-bounds read not flagged")
	}
}

func TestDecTruncated(t *testing.T) {
	var e Enc
	e.Str("abcdef")
	d := Dec{B: e.B[:5]} // length says 6, payload holds 1
	if d.Str() != "" || d.OK() {
		t.Fatal("truncated string not flagged")
	}
}

// TestStatusErrorMapping: every sentinel of PR 1's robustness ladder must
// survive the wire as the identical bare error, including when wrapped.
func TestStatusErrorMapping(t *testing.T) {
	cases := []error{
		vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir,
		vfs.ErrNotEmpty, vfs.ErrNoSpace, vfs.ErrClosed, vfs.ErrReadOnly,
		vfs.ErrIO, winefs.ErrTxOverflow,
	}
	for _, want := range cases {
		for _, sent := range []error{want, fmt.Errorf("%w: media detail", want)} {
			st, msg := statusFor(sent)
			got := errFor(st, msg)
			// The == comparison is deliberate: workload code compares
			// sentinels with != / ==, so the client must return the bare
			// error value.
			if got != want {
				t.Errorf("statusFor/errFor(%v) = %v, want identical sentinel", sent, want)
			}
		}
	}
	if st, _ := statusFor(nil); st != statusOK {
		t.Error("nil must map to statusOK")
	}
	st, msg := statusFor(errors.New("weird backend failure"))
	if st != statusError {
		t.Errorf("unmapped error got status %d", st)
	}
	if got := errFor(st, msg); got == nil || got.Error() != "fileserver: remote: weird backend failure" {
		t.Errorf("generic error round trip = %v", got)
	}
	for _, st := range []status{statusBadHandle, statusBadRequest, statusShutdown} {
		if errFor(st, "") == nil {
			t.Errorf("status %d mapped to nil", st)
		}
	}
}
