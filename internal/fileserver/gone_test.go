package fileserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/sim"
)

// TestErrServerGoneTyped: a transport death the client did not cause must
// surface as ErrServerGone (a dead primary), which still satisfies
// errors.Is(err, ErrConnClosed) for callers with the older contract.
func TestErrServerGoneTyped(t *testing.T) {
	srv, pl := newServer(t, pmem.New(256<<20), Config{})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(800, 0)

	if err := cl.Mkdir(ctx, "/gone"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}

	srv.Shutdown() // server goes away under the client

	var err error
	waitFor(t, "transport death to surface", func() bool {
		err = cl.Mkdir(ctx, "/gone2")
		return err != nil
	})
	if !errors.Is(err, ErrServerGone) {
		t.Fatalf("post-shutdown error = %v, want ErrServerGone", err)
	}
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("ErrServerGone must wrap ErrConnClosed, got %v", err)
	}
}

// TestLocalCloseIsNotServerGone: the client closing its own connection is
// a deliberate act, not a lost server.
func TestLocalCloseIsNotServerGone(t *testing.T) {
	_, pl := newServer(t, pmem.New(256<<20), Config{})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(801, 0)

	if err := cl.Mkdir(ctx, "/local"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	err := cl.Mkdir(ctx, "/local2")
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-close error = %v, want ErrConnClosed", err)
	}
	if errors.Is(err, ErrServerGone) {
		t.Fatalf("local close misreported as ErrServerGone: %v", err)
	}
}

// TestShutdownCtxBoundedByWedgedClient: a session whose peer stops reading
// wedges the graceful drain once the transport's buffer fills; ShutdownCtx
// must cut it at the context deadline instead of hanging forever.
func TestShutdownCtxBoundedByWedgedClient(t *testing.T) {
	srv, pl := newServer(t, pmem.New(256<<20), Config{RevokeTimeout: 30 * time.Second})

	// Hand-rolled session: handshake, request a response bigger than the
	// pipe buffer, never read the reply — the worker blocks writing it.
	conn, err := pl.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var e Enc
	e.U32(ProtoVersion)
	if err := WriteFrame(conn, 1, uint8(opHello), e.B); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, _, _, err := ReadFrame(conn); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	e = Enc{}
	e.Str("/wedge")
	if err := WriteFrame(conn, 2, uint8(opCreate), e.B); err != nil {
		t.Fatalf("create req: %v", err)
	}
	_, _, resp, err := ReadFrame(conn)
	if err != nil || len(resp) < 16 {
		t.Fatalf("create ack: %d bytes, %v", len(resp), err)
	}
	d := Dec{B: resp[8:]} // skip costNS
	h := d.U64()          // the handle
	const big = 2 << 20   // 2MiB response >> bufPipeMax
	e = Enc{}
	e.U64(h)
	e.I64(0)
	e.I64(big)
	if err := WriteFrame(conn, 3, uint8(opFallocate), e.B); err != nil {
		t.Fatalf("fallocate req: %v", err)
	}
	if _, _, _, err := ReadFrame(conn); err != nil {
		t.Fatalf("fallocate ack: %v", err)
	}
	e = Enc{}
	e.U64(h)
	e.I64(0)
	e.U32(big)
	if err := WriteFrame(conn, 4, uint8(opRead), e.B); err != nil {
		t.Fatalf("read req: %v", err)
	}
	// Give the server time to pick up the request and block on the reply.
	time.Sleep(50 * time.Millisecond)

	cctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.ShutdownCtx(cctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ShutdownCtx returned nil with a wedged session")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("ShutdownCtx took %v; the context bound did not hold", elapsed)
	}
}
