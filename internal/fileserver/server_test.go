package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

const testCPUs = 8

// newServer formats a fresh WineFS, wraps it in a Server on an in-memory
// listener, and tears everything down when the test ends.
func newServer(t *testing.T, dev *pmem.Device, cfg Config) (*Server, *PipeListener) {
	t.Helper()
	srv, pl, _ := newServerFS(t, dev, cfg)
	return srv, pl
}

// serveT serves fs on an in-memory listener until the test ends.
func serveT(t testing.TB, fs vfs.FS, cfg Config) (*Server, *PipeListener) {
	t.Helper()
	if cfg.CPUs == 0 {
		cfg.CPUs = testCPUs
	}
	srv := New(fs, cfg)
	pl := NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after shutdown", err)
		}
	})
	return srv, pl
}

func dialT(t testing.TB, pl *PipeListener) *Client {
	t.Helper()
	conn, err := pl.Dial()
	if err != nil {
		t.Fatalf("pipe dial: %v", err)
	}
	cl, err := Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return cl
}

// waitFor polls cond (wall-clock, for cross-goroutine teardown) briefly.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHelloRejectsOtherVersion: a client speaking the previous protocol
// version is refused at the handshake, not misparsed later.
func TestHelloRejectsOtherVersion(t *testing.T) {
	_, pl := newServer(t, pmem.New(64<<20), Config{})
	conn, err := pl.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var e Enc
	e.U32(ProtoVersion - 1)
	if err := WriteFrame(conn, 1, uint8(opHello), e.B); err != nil {
		t.Fatalf("hello: %v", err)
	}
	_, code, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("hello response: %v", err)
	}
	d := Dec{B: resp[8:]} // skip costNS
	if msg := d.Str(); status(code) != statusBadRequest || msg != "protocol version mismatch" {
		t.Fatalf("hello at version %d: status %d %q, want %d %q", ProtoVersion-1, code, msg, statusBadRequest, "protocol version mismatch")
	}
}

// TestRemoteBasicOps walks the whole surface of the protocol with one
// client and checks values match a local mount's semantics.
func TestRemoteBasicOps(t *testing.T) {
	_, pl := newServer(t, pmem.New(256<<20), Config{})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(100, 0)

	if cl.Name() != "WineFS" {
		t.Errorf("Name() = %q", cl.Name())
	}
	if cl.Mode() != vfs.Strict {
		t.Errorf("Mode() = %v", cl.Mode())
	}

	if err := cl.Mkdir(ctx, "/d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := cl.Mkdir(ctx, "/d"); err != vfs.ErrExist {
		t.Fatalf("second mkdir = %v, want bare vfs.ErrExist", err)
	}
	if _, err := cl.Open(ctx, "/d/missing"); err != vfs.ErrNotExist {
		t.Fatalf("open missing = %v, want bare vfs.ErrNotExist", err)
	}

	f, err := cl.Create(ctx, "/d/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	data := []byte("the quick brown fox")
	if n, err := f.Append(ctx, data); err != nil || n != len(data) {
		t.Fatalf("append = %d, %v", n, err)
	}
	if f.Size() != int64(len(data)) {
		t.Errorf("cached size = %d, want %d", f.Size(), len(data))
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	buf := make([]byte, 64)
	n, err := f.ReadAt(ctx, buf, 0)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if n, err := f.ReadAt(ctx, buf, int64(len(data))); n != 0 || err != nil {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
	if _, err := f.WriteAt(ctx, []byte("THE"), 0); err != nil {
		t.Fatalf("writeat: %v", err)
	}
	if err := f.Fallocate(ctx, 0, 8192); err != nil {
		t.Fatalf("fallocate: %v", err)
	}
	if f.Size() != 8192 {
		t.Errorf("size after fallocate = %d", f.Size())
	}
	if err := f.Truncate(ctx, 3); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if f.Size() != 3 {
		t.Errorf("size after truncate = %d", f.Size())
	}
	if err := f.SetXattr(ctx, vfs.XattrAligned, []byte("1")); err != nil {
		t.Fatalf("setxattr: %v", err)
	}
	// WineFS models the alignment attribute as a flag: Get reports "1".
	if v, ok := f.GetXattr(ctx, vfs.XattrAligned); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("getxattr = %v, %v", v, ok)
	}
	if _, ok := f.GetXattr(ctx, "user.nope"); ok {
		t.Fatal("getxattr of missing attr reported ok")
	}
	// A remote handle is no vfs.Mapper: vfs.Mmap, every File.Mmap, says so.
	if m, err := f.Mmap(ctx, 4096); m != nil || !errors.Is(err, vfs.ErrNotSupported) {
		t.Fatalf("mmap = %v, %v, want vfs.ErrNotSupported", m, err)
	}

	fi, err := cl.Stat(ctx, "/d/f")
	if err != nil || fi.IsDir || fi.Size != 3 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	if fi.Ino != f.Ino() {
		t.Errorf("stat ino %d != handle ino %d", fi.Ino, f.Ino())
	}
	ents, err := cl.ReadDir(ctx, "/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
	sfs := cl.StatFS(ctx)
	if sfs.TotalBlocks == 0 || sfs.Files == 0 {
		t.Errorf("statfs = %+v", sfs)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := cl.Rename(ctx, "/d/f", "/d/g"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := cl.Unlink(ctx, "/d/g"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := cl.Rmdir(ctx, "/d"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	// The server must have charged virtual time and the client received it.
	if ctx.Now() == 0 {
		t.Error("client ctx never advanced: virtual-time bridging broken")
	}
	if err := cl.Unmount(ctx); err != nil {
		t.Fatalf("unmount: %v", err)
	}
}

// TestRemotePathsConfined: hostile dot-segment paths sent straight over
// the wire must stay inside the export root instead of escaping it.
func TestRemotePathsConfined(t *testing.T) {
	srv, pl := newServer(t, pmem.New(128<<20), Config{})
	_ = srv
	cl := dialT(t, pl)
	ctx := sim.NewCtx(100, 0)

	if err := cl.Mkdir(ctx, "/jail"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	f, err := cl.Create(ctx, "/jail/../../../escaped")
	if err != nil {
		t.Fatalf("create with traversal: %v", err)
	}
	if _, err := f.Append(ctx, []byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}
	f.Close(ctx)
	// The traversal clamps at the export root: the file landed at /escaped.
	if _, err := cl.Stat(ctx, "/escaped"); err != nil {
		t.Fatalf("confined path not found at /escaped: %v", err)
	}
	// A parent that genuinely doesn't exist still fails cleanly.
	if _, err := cl.Create(ctx, "/jail/../nodir/x"); err != vfs.ErrNotExist {
		t.Fatalf("create under missing parent = %v, want vfs.ErrNotExist", err)
	}
	ents, err := cl.ReadDir(ctx, "/")
	if err != nil {
		t.Fatalf("readdir /: %v", err)
	}
	for _, e := range ents {
		if e.Name == ".." || e.Name == "." {
			t.Fatalf("dot entry leaked into the namespace: %+v", e)
		}
	}
	cl.Unmount(ctx)
}

// TestRemoteRootPathRejected: untrusted wire paths that clean to "/" must
// be refused by the server with the same vfs.ErrExist a local mount
// returns, not create a nameless file or crash the session.
func TestRemoteRootPathRejected(t *testing.T) {
	_, pl := newServer(t, pmem.New(128<<20), Config{})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(100, 0)

	for _, p := range []string{"/", "", "//", "/.", "/..", "/a/.."} {
		if _, err := cl.Create(ctx, p); err != vfs.ErrExist {
			t.Errorf("remote Create(%q) = %v, want bare vfs.ErrExist", p, err)
		}
		if err := cl.Mkdir(ctx, p); err != vfs.ErrExist {
			t.Errorf("remote Mkdir(%q) = %v, want bare vfs.ErrExist", p, err)
		}
		if err := cl.Unlink(ctx, p); err != vfs.ErrExist {
			t.Errorf("remote Unlink(%q) = %v, want bare vfs.ErrExist", p, err)
		}
	}
	// The session survived the hostile paths and the namespace is clean.
	ents, err := cl.ReadDir(ctx, "/")
	if err != nil {
		t.Fatalf("readdir after hostile paths: %v", err)
	}
	for _, e := range ents {
		if e.Name == "" {
			t.Fatalf("empty-named dirent over the wire: %+v", ents)
		}
	}
	if err := cl.Unmount(ctx); err != nil {
		t.Fatalf("unmount: %v", err)
	}
}

// TestRequestSpanTree: a remote request must produce one coherent span
// tree — a rpc.<op> root with the FS/device child spans (journal commits,
// hugepage zeroing) hanging off it, carrying a plausible cost breakdown.
func TestRequestSpanTree(t *testing.T) {
	sink := trace.NewCollect()
	tr := trace.New(sink)
	_, pl := newServer(t, pmem.New(256<<20), Config{Tracer: tr})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(100, 0)

	f, err := cl.Create(ctx, "/traced")
	if err != nil {
		t.Fatal(err)
	}
	// A 2MiB fallocate forces journal commits and bulk zeroing under one rpc.
	if err := f.Fallocate(ctx, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, bytes.Repeat([]byte("w"), 4096), 0); err != nil {
		t.Fatal(err)
	}
	f.Close(ctx)
	cl.Unmount(ctx)

	spans := sink.Spans()
	byID := map[uint64]*trace.Span{}
	roots := map[string]*trace.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.ParentID == 0 {
			if !strings.HasPrefix(sp.Name, "rpc.") {
				t.Errorf("non-rpc root span %q", sp.Name)
			}
			roots[sp.Name] = sp
		}
	}
	for _, want := range []string{"rpc.create", "rpc.fallocate", "rpc.write", "rpc.close"} {
		if roots[want] == nil {
			t.Errorf("missing root span %s (have %v)", want, spanNames(spans))
		}
	}
	// Children link to a live parent and nest inside its interval.
	var commits, zeroes int
	for _, sp := range spans {
		if sp.ParentID == 0 {
			continue
		}
		parent := byID[sp.ParentID]
		if parent == nil {
			t.Fatalf("span %s has dangling parent %d", sp.Name, sp.ParentID)
		}
		if sp.StartNS < parent.StartNS || sp.EndNS > parent.EndNS {
			t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]",
				sp.Name, sp.StartNS, sp.EndNS, parent.Name, parent.StartNS, parent.EndNS)
		}
		switch sp.Name {
		case "journal.commit":
			commits++
		case "pmem.zero":
			zeroes++
		}
	}
	if commits == 0 {
		t.Error("no journal.commit child spans under the rpcs")
	}
	if zeroes == 0 {
		t.Error("no pmem.zero span for the 2MiB fallocate")
	}
	// The fallocate rpc's breakdown must attribute journal and zero time.
	fa := roots["rpc.fallocate"]
	if fa.Cost.JournalNS <= 0 || fa.Cost.ZeroNS <= 0 {
		t.Errorf("rpc.fallocate breakdown: %+v", fa.Cost)
	}
	if fa.Attrs["status"] != "0" {
		t.Errorf("rpc.fallocate status attr = %q", fa.Attrs["status"])
	}
}

func spanNames(spans []*trace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTracingDoesNotPerturbVirtualTime: the same deterministic workload run
// with tracing off and on must produce identical virtual time and counters
// — spans observe the clock, never advance it.
func TestTracingDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(tr *trace.Tracer) (int64, *sim.Ctx) {
		_, pl := newServer(t, pmem.New(256<<20), Config{Tracer: tr})
		cl := dialT(t, pl)
		ctx := sim.NewCtx(100, 0)
		res, err := workloads.ServerMixClient(ctx, cl, 0, workloads.ServerMixConfig{Ops: 200, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Unmount(ctx); err != nil {
			t.Fatal(err)
		}
		return res.VirtualNS, ctx
	}
	offNS, offCtx := run(nil)
	onNS, onCtx := run(trace.New(trace.NewCollect()))
	if offNS != onNS {
		t.Errorf("virtual time diverged: off=%d on=%d", offNS, onNS)
	}
	if *offCtx.Counters != *onCtx.Counters {
		t.Errorf("counters diverged:\noff: %+v\non:  %+v", offCtx.Counters, onCtx.Counters)
	}
}

// TestConcurrentClients is the acceptance test: ≥8 clients doing mixed
// create/write/read/rename against one WineFS mount through the in-memory
// transport, byte-exact reads, clean shutdown. Run under -race by make
// check.
func TestConcurrentClients(t *testing.T) {
	const clients = 8
	srv, pl := newServer(t, pmem.New(1<<30), Config{})

	var totalOps atomic.Int64
	if err := sim.RunThreads(sim.NewThreads(clients, 200, testCPUs, 0), func(i int, ctx *sim.Ctx) error {
		cl := dialT(t, pl)
		res, err := workloads.ServerMixClient(ctx, cl, i, workloads.ServerMixConfig{Ops: 60, Seed: 42})
		if err != nil {
			return fmt.Errorf("client %d: %v", i, err)
		}
		totalOps.Add(res.Ops)
		return cl.Unmount(ctx)
	}); err != nil {
		t.Error(err)
	}
	waitFor(t, "sessions to finish", func() bool { return srv.Stats().ActiveSessions == 0 })
	st := srv.Stats()
	if st.TotalSessions != clients {
		t.Errorf("TotalSessions = %d, want %d", st.TotalSessions, clients)
	}
	if st.OpenHandles != 0 {
		t.Errorf("OpenHandles = %d after all sessions closed", st.OpenHandles)
	}
	if st.Ops < totalOps.Load() {
		t.Errorf("server ops %d < client ops %d", st.Ops, totalOps.Load())
	}
	if st.Counters.Syscalls == 0 || st.Lat.Count() == 0 {
		t.Error("aggregated stats empty")
	}
}

// okServingErr reports whether err is an outcome the degradation ladder
// allows a remote client to observe under media faults: clean EIO,
// read-only fallback, or an ordinary namespace race. Anything else —
// in particular a dropped connection or an unmapped error — fails the
// fault campaign.
func okServingErr(err error) bool {
	for _, allowed := range []error{
		vfs.ErrIO, vfs.ErrReadOnly, vfs.ErrNotExist, vfs.ErrExist,
		vfs.ErrNoSpace, winefs.ErrTxOverflow,
	} {
		if errors.Is(err, allowed) {
			return true
		}
	}
	return false
}

// TestFaultCampaignServing: the device carries read faults while 8 clients
// hammer the mount. Every client-visible failure must be a typed EIO or
// read-only error delivered over a live connection — never a panic, never
// a connection drop.
func TestFaultCampaignServing(t *testing.T) {
	const clients = 8
	dev := pmem.New(512 << 20)
	_, pl := newServer(t, dev, Config{})
	// Trip persistent media errors on an escalating schedule of checked
	// reads; whatever structure read #N happens to be (data, dirent block,
	// inode table, journal) gets poisoned, exercising both the EIO and the
	// read-only rungs of the ladder.
	var rules []pmem.ReadRule
	for n := 40; n <= 2000; n += 120 {
		rules = append(rules, pmem.ReadRule{Nth: n})
	}
	dev.SetReadFaults(rules)

	if err := sim.RunThreads(sim.NewThreads(clients, 300, testCPUs, 0), func(i int, ctx *sim.Ctx) error {
		cl := dialT(t, pl)
		defer cl.Close()
		dir := fmt.Sprintf("/fc%d", i)
		if err := cl.Mkdir(ctx, dir); err != nil && !okServingErr(err) {
			return fmt.Errorf("client %d mkdir: %w", i, err)
		}
		buf := make([]byte, 8192)
		for op := 0; op < 120; op++ {
			name := fmt.Sprintf("%s/f%03d", dir, op)
			f, err := cl.Create(ctx, name)
			if err != nil {
				if !okServingErr(err) {
					return fmt.Errorf("client %d create %s: %w", i, name, err)
				}
				continue
			}
			if _, err := f.Append(ctx, buf); err != nil && !okServingErr(err) {
				return fmt.Errorf("client %d append %s: %w", i, name, err)
			}
			if _, err := f.ReadAt(ctx, buf, 0); err != nil && !okServingErr(err) {
				return fmt.Errorf("client %d read %s: %w", i, name, err)
			}
			if err := f.Close(ctx); err != nil && !okServingErr(err) {
				return fmt.Errorf("client %d close %s: %w", i, name, err)
			}
			if op%5 == 4 {
				if err := cl.Unlink(ctx, name); err != nil && !okServingErr(err) {
					return fmt.Errorf("client %d unlink %s: %w", i, name, err)
				}
			}
		}
		return nil
	}); err != nil {
		t.Errorf("observed a non-ladder failure: %v", err)
	}
	if dev.PoisonedReads() == 0 {
		t.Error("read faults never tripped: campaign exercised nothing")
	}
	// The server survived the campaign: a fresh client still gets served.
	cl := dialT(t, pl)
	ctx := sim.NewCtx(400, 0)
	if _, err := cl.Stat(ctx, "/"); err != nil && !okServingErr(err) {
		t.Errorf("post-campaign stat: %v", err)
	}
	cl.Unmount(ctx)
}

// TestSessionDeathFreesHandles is the satellite regression test: a client
// killed without detaching must have its handles closed server-side (with
// a fresh ctx) so a second client working on the same inode proceeds.
func TestSessionDeathFreesHandles(t *testing.T) {
	srv, pl := newServer(t, pmem.New(256<<20), Config{})

	connA, err := pl.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	clA, err := Dial(connA)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	ctxA := sim.NewCtx(500, 0)
	fA, err := clA.Create(ctxA, "/shared")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := fA.Append(ctxA, bytes.Repeat([]byte{7}, 32<<10)); err != nil {
		t.Fatalf("append: %v", err)
	}
	waitFor(t, "handle to register", func() bool { return srv.Stats().OpenHandles == 1 })

	// Kill the client abruptly: no Close of the handle, no Detach.
	connA.Close()
	waitFor(t, "dead session cleanup", func() bool {
		st := srv.Stats()
		return st.ActiveSessions == 0 && st.OpenHandles == 0
	})

	// A second client must be able to use, overwrite and unlink the same
	// inode without wedging on anything the dead session left behind.
	clB := dialT(t, pl)
	ctxB := sim.NewCtx(501, 1)
	done := make(chan error, 1)
	go func() {
		fB, err := clB.Open(ctxB, "/shared")
		if err != nil {
			done <- err
			return
		}
		if _, err := fB.WriteAt(ctxB, []byte("alive"), 0); err != nil {
			done <- err
			return
		}
		if err := fB.Close(ctxB); err != nil {
			done <- err
			return
		}
		done <- clB.Unlink(ctxB, "/shared")
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second client failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second client wedged on the dead session's inode")
	}
	clB.Unmount(ctxB)
}

// TestFilebenchThroughClient runs a full unmodified workload driver from
// internal/workloads against a remote mount (acceptance criterion). The
// driver spawns its own goroutines, so this also exercises request
// multiplexing on one shared connection.
func TestFilebenchThroughClient(t *testing.T) {
	srv, pl := newServer(t, pmem.New(1<<30), Config{})
	_ = srv
	cl := dialT(t, pl)
	res, err := workloads.Filebench(sim.NewCtx(1000, 0), cl, workloads.Varmail, workloads.FilebenchConfig{
		Threads:      4,
		Files:        200,
		OpsPerThread: 25,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("filebench over the wire: %v", err)
	}
	if res.Ops != 4*25 || res.VirtualNS <= 0 {
		t.Fatalf("filebench result = %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
	ctx := sim.NewCtx(600, 0)
	if err := cl.Unmount(ctx); err != nil {
		t.Fatalf("unmount: %v", err)
	}
}

// TestGracefulDrain: shutdown mid-traffic must answer already-pipelined
// requests and leave later calls failing with ErrConnClosed — clients see
// typed errors, not hangs or panics.
func TestGracefulDrain(t *testing.T) {
	srv, pl := newServer(t, pmem.New(256<<20), Config{})
	const clients = 4
	started := make(chan struct{}, clients)
	// The last member shuts the server down once every client has started.
	if err := sim.RunThreads(sim.NewThreads(clients+1, 700, testCPUs, 0), func(i int, ctx *sim.Ctx) error {
		if i == clients {
			for range clients {
				<-started
			}
			srv.Shutdown()
			return nil
		}
		cl := dialT(t, pl)
		err := cl.Mkdir(ctx, fmt.Sprintf("/dr%d", i))
		if err == vfs.ErrExist {
			err = nil
		}
		started <- struct{}{} // always signal, or an early error hangs the test
		if err != nil {
			return fmt.Errorf("client %d: %v", i, err)
		}
		for op := 0; ; op++ {
			// Create/append/unlink churn: sustained traffic with bounded
			// space use, so however fast the transport pipelines, the
			// loop cannot exhaust the device before Shutdown fires.
			name := fmt.Sprintf("/dr%d/f%04d", i, op)
			f, err := cl.Create(ctx, name)
			if err == nil {
				_, err = f.Append(ctx, make([]byte, 4096))
				if cerr := f.Close(ctx); err == nil {
					err = cerr
				}
				if err == nil {
					err = cl.Unlink(ctx, name)
				}
			}
			if errors.Is(err, ErrConnClosed) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("client %d: drain surfaced %v, want only ErrConnClosed", i, err)
			}
		}
	}); err != nil {
		t.Error(err)
	}
	if st := srv.Stats(); st.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d after Shutdown", st.ActiveSessions)
	}
	// New connections are refused after shutdown.
	if _, err := pl.Dial(); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-shutdown dial = %v, want ErrShutdown", err)
	}
}

// TestBackpressureWindow: more concurrent callers on one TCP client than
// the session window must fill the window's queue and then be throttled,
// neither deadlocked nor dropped. Over TCP every request passes through
// the session reader and the queue (an in-memory pipe dispatches directly
// and never queues). The first mutating request of the burst holds the
// worker until the reader has filled the queue, so the rest of the burst
// meets a full window.
func TestBackpressureWindow(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: testCPUs})
	if err != nil {
		t.Fatal(err)
	}
	var srv *Server
	var armed, filled atomic.Bool
	srv = New(fs, Config{CPUs: testCPUs, BaseNS: ctx.Now(), PostMutate: func(*sim.Ctx, int64) {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		for deadline := time.Now().Add(10 * time.Second); !filled.Load() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			srv.mu.Lock()
			for _, sess := range srv.sessions {
				if len(sess.reqs) == cap(sess.reqs) {
					filled.Store(true)
				}
			}
			srv.mu.Unlock()
		}
	}})
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	conn, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	setup := sim.NewCtx(800, 0)
	if err := cl.Mkdir(setup, "/bp"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}

	const callers = 2 * sessionWindow
	armed.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- sim.RunThreads(sim.NewThreads(callers, 810, testCPUs, setup.Now()), func(i int, ctx *sim.Ctx) error {
			for op := 0; op < 4; op++ {
				f, err := cl.Create(ctx, fmt.Sprintf("/bp/c%d-%d", i, op))
				if err == nil {
					_, err = f.Append(ctx, make([]byte, 1024))
					if err == nil {
						err = f.Close(ctx)
					}
				}
				if err != nil {
					return fmt.Errorf("caller %d: %v", i, err)
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		cl.Close() // fails the callers still waiting for a reply
		<-done
		t.Fatalf("%d callers did not finish: a request past the window was lost", callers)
	}
	if !filled.Load() {
		t.Errorf("the burst of %d callers never filled the %d-request window", callers, sessionWindow)
	}
	if err := cl.Unmount(setup); err != nil {
		t.Error(err)
	}
	srv.Shutdown()
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v after shutdown", err)
	}
}
