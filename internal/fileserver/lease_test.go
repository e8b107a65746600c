package fileserver

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fstest"
	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// newServerFS is newServer but also returns the backing WineFS, for tests
// that cross-check server-visible state with winefs.Audit.
func newServerFS(t *testing.T, dev *pmem.Device, cfg Config) (*Server, *PipeListener, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: testCPUs, Mode: vfs.Strict})
	if err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	srv, pl := serveT(t, fs, cfg)
	return srv, pl, fs
}

// cacheStats snapshots a cache's counters after checking its structure
// (the two page lists, the dirty counts, the free list).
func cacheStats(t *testing.T, c *pagecache.Cache) pagecache.Stats {
	t.Helper()
	if err := c.CheckInvariant(); err != nil {
		t.Error(err)
	}
	return c.Stats()
}

func leasePattern(p []byte, gen int) {
	for i := range p {
		p[i] = byte(gen*131 + i*7 + 11)
	}
}

// TestTwoSessionWriteCoherence is the deterministic conflicting-write
// interleaving: session A buffers dirty pages under a write lease, then
// session B opens and reads the same file. The open must revoke A's lease,
// A must flush, and B must observe exactly A's latest bytes — never the
// old generation, never a mix.
func TestTwoSessionWriteCoherence(t *testing.T) {
	srv, pl, _ := newServerFS(t, pmem.New(256<<20), Config{})

	clA := dialT(t, pl)
	cacheA := pagecache.New(clA, pagecache.Config{})
	ctxA := sim.NewCtx(300, 0)

	const size = 2 * pagecache.PageSize
	gen0 := make([]byte, size)
	gen1 := make([]byte, size)
	leasePattern(gen0, 0)
	leasePattern(gen1, 1)

	fA, err := cacheA.Create(ctxA, "/shared")
	if err != nil {
		t.Fatalf("A create: %v", err)
	}
	if _, err := fA.Append(ctxA, gen0); err != nil {
		t.Fatalf("A append: %v", err)
	}
	// The rewrite is buffered: the server still holds gen0.
	if _, err := fA.WriteAt(ctxA, gen1, 0); err != nil {
		t.Fatalf("A rewrite: %v", err)
	}
	if st := cacheStats(t, cacheA); st.DirtyPages != 2 {
		t.Fatalf("A DirtyPages = %d, want 2 buffered pages", st.DirtyPages)
	}
	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant with one write holder: %v", err)
	}

	// B's open conflicts: the server revokes A's write lease and waits for
	// the flush before letting the open complete.
	clB := dialT(t, pl)
	ctxB := sim.NewCtx(301, 1)
	fB, err := clB.Open(ctxB, "/shared")
	if err != nil {
		t.Fatalf("B open: %v", err)
	}
	if st := cacheStats(t, cacheA); st.Revokes != 1 || st.DirtyPages != 0 {
		t.Fatalf("after B's open: A stats %+v, want 1 revoke and 0 dirty", st)
	}
	got := make([]byte, size)
	if n, err := fB.ReadAt(ctxB, got, 0); err != nil || n != size {
		t.Fatalf("B read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, gen1) {
		if bytes.Equal(got, gen0) {
			t.Fatalf("B read STALE gen0 bytes: A's buffered write was lost")
		}
		t.Fatalf("B read a mix of generations")
	}
	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant after revoke: %v", err)
	}

	// A's handle still works pass-through after the revoke.
	if _, err := fA.ReadAt(ctxA, got, 0); err != nil {
		t.Fatalf("A read after revoke: %v", err)
	}
	if !bytes.Equal(got, gen1) {
		t.Fatalf("A reads wrong bytes after revoke")
	}

	if err := fB.Close(ctxB); err != nil {
		t.Fatalf("B close: %v", err)
	}
	if err := fA.Close(ctxA); err != nil {
		t.Fatalf("A close: %v", err)
	}
	if err := cacheA.Unmount(ctxA); err != nil {
		t.Fatalf("A unmount: %v", err)
	}
	if err := clB.Unmount(ctxB); err != nil {
		t.Fatalf("B unmount: %v", err)
	}
}

// TestLeaseRefusedWhileWriteInFlight is the stale-read-lease regression.
// The server revokes conflicting leases and then applies a pass-through
// write; a session granted a read lease in between used to cache the old
// bytes under a lease nobody would ever revoke. Here the stub FS holds A's
// write inside WriteAt while B opens and reads — the old bytes are the
// right answer at that point — and once the write has returned B must read
// the new ones.
func TestLeaseRefusedWhileWriteInFlight(t *testing.T) {
	mem := fstest.NewMemFS()
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	mem.OnData = func(op fstest.DataOp, ino uint64, off int64, n int) error {
		if op == fstest.DataWrite && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // a failing test must not leave the server wedged
	srv, pl := serveT(t, mem, Config{})

	const size = pagecache.PageSize
	gen0, gen1 := make([]byte, size), make([]byte, size)
	leasePattern(gen0, 0)
	leasePattern(gen1, 1)

	clA := dialT(t, pl)
	ctxA := sim.NewCtx(380, 0)
	fA, err := clA.Create(ctxA, "/f")
	if err != nil {
		t.Fatalf("A create: %v", err)
	}
	if _, err := fA.Append(ctxA, gen0); err != nil {
		t.Fatalf("A append: %v", err)
	}
	armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := fA.WriteAt(ctxA, gen1, 0)
		wrote <- err
	}()
	<-entered // A's write is past its revoke and inside the FS call

	cacheB := pagecache.New(dialT(t, pl), pagecache.Config{})
	ctxB := sim.NewCtx(381, 1)
	fB, err := cacheB.Open(ctxB, "/f")
	if err != nil {
		t.Fatalf("B open: %v", err)
	}
	got := make([]byte, size)
	if n, err := fB.ReadAt(ctxB, got, 0); err != nil || n != size || !bytes.Equal(got, gen0) {
		t.Fatalf("B read during the write: n=%d err=%v, want the old generation", n, err)
	}

	unblock()
	if err := <-wrote; err != nil {
		t.Fatalf("A write: %v", err)
	}
	if n, err := fB.ReadAt(ctxB, got, 0); err != nil || n != size {
		t.Fatalf("B read after the write: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, gen1) {
		t.Fatalf("B read the old generation after A's write returned: a lease granted mid-write served stale bytes")
	}
	if st := cacheStats(t, cacheB); st.Pages != 0 {
		t.Fatalf("B cached %d pages of a file with a write in flight", st.Pages)
	}
	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
	if err := fB.Close(ctxB); err != nil {
		t.Fatalf("B close: %v", err)
	}
}

// TestRevokeTimeoutDrainsHolder checks the liveness guard: a client that
// holds a lease but never acks the revoke is drained after RevokeTimeout,
// and the conflicting writer proceeds rather than hanging forever.
func TestRevokeTimeoutDrainsHolder(t *testing.T) {
	srv, pl, _ := newServerFS(t, pmem.New(256<<20), Config{RevokeTimeout: 100 * time.Millisecond})

	clStuck := dialT(t, pl)
	block := make(chan struct{})
	released := make(chan struct{})
	clStuck.SetRevokeHandler(func(ino uint64) {
		<-block
		close(released)
	})
	defer close(block)

	ctx1 := sim.NewCtx(310, 0)
	f1, err := clStuck.Create(ctx1, "/hostage")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f1.Append(ctx1, []byte("v0")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if granted, err := f1.(pagecache.Leasable).Lease(ctx1, false); err != nil || !granted {
		t.Fatalf("lease: granted=%v err=%v", granted, err)
	}

	ctx2 := sim.NewCtx(311, 1)
	cl2 := dialT(t, pl)
	f2, err := cl2.Open(ctx2, "/hostage")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// The write conflicts with the stuck client's read lease; it must
	// complete despite the missing ack, via the drain.
	start := time.Now()
	if _, err := f2.WriteAt(ctx2, []byte("v1"), 0); err != nil {
		t.Fatalf("conflicting write: %v", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("write proceeded in %v — revoke was not actually awaited", waited)
	}
	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant after drain: %v", err)
	}
	select {
	case <-released:
		t.Fatalf("handler finished — drain should have happened while it was stuck")
	default:
	}
	// The stuck session was drained: its next request fails.
	waitFor(t, "stuck session drained", func() bool {
		_, err := clStuck.Stat(ctx1, "/hostage")
		return err != nil
	})
	if err := f2.Close(ctx2); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := cl2.Unmount(ctx2); err != nil {
		t.Fatalf("unmount: %v", err)
	}
}

// TestCachedAuditNoLostWriteback is the writeback-conservation audit: after
// a cached client finishes and the server drains, every logical byte the
// client wrote is accounted for as either flushed write-back or
// write-through — and the server-visible content plus winefs.Audit agree.
func TestCachedAuditNoLostWriteback(t *testing.T) {
	srv, pl, fs := newServerFS(t, pmem.New(256<<20), Config{})

	cl := dialT(t, pl)
	cache := pagecache.New(cl, pagecache.Config{})
	ctx := sim.NewCtx(320, 0)

	const files = 4
	const size = 3 * pagecache.PageSize
	var logicalBytes int64
	oracle := make([][]byte, files)
	for i := 0; i < files; i++ {
		f, err := cache.Create(ctx, fmt.Sprintf("/a%d", i))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		base := make([]byte, size)
		leasePattern(base, i)
		if _, err := f.Append(ctx, base); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		logicalBytes += size
		rew := make([]byte, size)
		leasePattern(rew, i+100)
		if _, err := f.WriteAt(ctx, rew, 0); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
		logicalBytes += size
		oracle[i] = rew
		if err := f.Close(ctx); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}

	st := cacheStats(t, cache)
	if st.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after all closes, want 0", st.DirtyPages)
	}
	if got := st.FlushedBytes + st.WriteThroughBytes; got != logicalBytes {
		t.Fatalf("byte conservation broken: flushed %d + write-through %d = %d, client wrote %d",
			st.FlushedBytes, st.WriteThroughBytes, got, logicalBytes)
	}
	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}

	// Server-visible bytes: a second, uncached session must read exactly
	// the oracle image.
	cl2 := dialT(t, pl)
	ctx2 := sim.NewCtx(321, 1)
	for i := 0; i < files; i++ {
		f, err := cl2.Open(ctx2, fmt.Sprintf("/a%d", i))
		if err != nil {
			t.Fatalf("verify open %d: %v", i, err)
		}
		got := make([]byte, size)
		if n, err := f.ReadAt(ctx2, got, 0); err != nil || n != size {
			t.Fatalf("verify read %d: n=%d err=%v", i, n, err)
		}
		if !bytes.Equal(got, oracle[i]) {
			t.Fatalf("file %d: server content differs from client oracle", i)
		}
		if err := f.Close(ctx2); err != nil {
			t.Fatalf("verify close %d: %v", i, err)
		}
	}
	if err := cl2.Unmount(ctx2); err != nil {
		t.Fatalf("verify unmount: %v", err)
	}
	if err := cache.Unmount(ctx); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	if got := srv.Stats().OpenHandles; got != 0 {
		t.Fatalf("server still holds %d open handles after drain", got)
	}
	// The on-media structures survived the whole lease dance.
	if err := fs.Audit(sim.NewCtx(50, 0)); err != nil {
		t.Fatalf("winefs audit: %v", err)
	}
}

// TestCacheRace8Sessions hammers a small shared working set from 8 cached
// sessions concurrently. Run under -race this is the CI cache-race step;
// here it checks the lease invariant holds throughout and that the
// machinery converges (sessions may be drained by cross-revoke timeouts —
// that is the documented degradation — but the server must stay sound).
func TestCacheRace8Sessions(t *testing.T) {
	srv, pl, fs := newServerFS(t, pmem.New(256<<20),
		Config{RevokeTimeout: 500 * time.Millisecond})

	setup := dialT(t, pl)
	setupCtx := sim.NewCtx(330, 0)
	const shared = 4
	const size = 2 * pagecache.PageSize
	buf := make([]byte, size)
	for i := 0; i < shared; i++ {
		f, err := setup.Create(setupCtx, fmt.Sprintf("/r%d", i))
		if err != nil {
			t.Fatalf("setup create: %v", err)
		}
		leasePattern(buf, i)
		if _, err := f.Append(setupCtx, buf); err != nil {
			t.Fatalf("setup append: %v", err)
		}
		if err := f.Close(setupCtx); err != nil {
			t.Fatalf("setup close: %v", err)
		}
	}

	const sessions = 8
	const rounds = 6
	var okRounds [sessions]int
	if err := sim.RunThreads(sim.NewThreads(sessions, 340, testCPUs, 0), func(i int, ctx *sim.Ctx) error {
		cl := dialT(t, pl)
		cache := pagecache.New(cl, pagecache.Config{})
		data := make([]byte, size)
		rbuf := make([]byte, size)
		for j := 0; j < rounds; j++ {
			// A drained session (cross-revoke timeout) ends this
			// client's run; everything before the drain must have been
			// clean.
			f, err := cache.Open(ctx, fmt.Sprintf("/r%d", (i+j)%shared))
			if err != nil {
				return nil
			}
			if _, err := f.ReadAt(ctx, rbuf, 0); err != nil {
				return nil
			}
			leasePattern(data, 1000+i*rounds+j)
			if _, err := f.WriteAt(ctx, data, 0); err != nil {
				return nil
			}
			if err := f.Close(ctx); err != nil {
				return nil
			}
			// Revoke handlers of this cache may be running right now;
			// the structure must hold at every instant mu is free.
			if err := cache.CheckInvariant(); err != nil {
				return fmt.Errorf("session %d round %d: %v", i, j, err)
			}
			okRounds[i]++
		}
		cache.Unmount(ctx)
		return nil
	}); err != nil {
		t.Error(err)
	}

	if err := srv.CheckLeaseInvariant(); err != nil {
		t.Fatalf("invariant after the storm: %v", err)
	}
	total := 0
	for i := range okRounds {
		total += okRounds[i]
	}
	if total == 0 {
		t.Fatalf("no session completed a single round")
	}
	// Every file still has its full size and consistent metadata.
	verify := dialT(t, pl)
	vctx := sim.NewCtx(360, 0)
	for i := 0; i < shared; i++ {
		fi, err := verify.Stat(vctx, fmt.Sprintf("/r%d", i))
		if err != nil {
			t.Fatalf("verify stat: %v", err)
		}
		if fi.Size != size {
			t.Fatalf("file %d size %d, want %d", i, fi.Size, size)
		}
	}
	if err := verify.Unmount(vctx); err != nil {
		t.Fatalf("verify unmount: %v", err)
	}
	if err := fs.Audit(sim.NewCtx(51, 0)); err != nil {
		t.Fatalf("winefs audit: %v", err)
	}
}

// TestCachedServerMixThroughCache runs the full ServerMix op mix through a
// cached client against a live server: every oracle check inside the
// workload doubles as a coherence check on the cache.
func TestCachedServerMixThroughCache(t *testing.T) {
	_, pl, _ := newServerFS(t, pmem.New(512<<20), Config{})
	const clients = 3
	if err := sim.RunThreads(sim.NewThreads(clients, 370, testCPUs, 0), func(i int, ctx *sim.Ctx) error {
		cache := pagecache.New(dialT(t, pl), pagecache.Config{})
		if _, err := workloads.ServerMixClient(ctx, cache, i, workloads.ServerMixConfig{Ops: 40, Seed: 7}); err != nil {
			return fmt.Errorf("cached client %d: %v", i, err)
		}
		return cache.Unmount(ctx)
	}); err != nil {
		t.Fatal(err)
	}
}

// CheckLeaseInvariant verifies the coherence invariant over the live lease
// table: at most one writer per ino and never a writer alongside readers.
// It returns nil when the table is consistent.
func (s *Server) CheckLeaseInvariant() error {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for ino, l := range s.leases {
		if l.writer != nil && len(l.readers) > 0 {
			return fmt.Errorf("fileserver: lease invariant violated: ino %d has a writer and readers", ino)
		}
	}
	return nil
}
