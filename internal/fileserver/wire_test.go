package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
	"repro/internal/winefs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, wire")
	if err := WriteFrame(&buf, 42, uint8(opRead), payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	id, code, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if id != 42 || op(code) != opRead || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = (%d, %d, %q)", id, code, got)
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
