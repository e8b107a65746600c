package fileserver

import (
	"testing"

	"repro/internal/fstest"
	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// memServed serves an in-memory stub holding one file of the given size
// and returns a client on it, past its handshake — so on direct dispatch.
// Nothing below the server allocates, so the pins and benchmarks here see
// the wire codec, the session and the client alone.
func memServed(tb testing.TB, pages int) *Client {
	tb.Helper()
	mem := fstest.NewMemFS()
	ctx := sim.NewCtx(1, 0)
	f, err := mem.Create(ctx, "/f")
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Fallocate(ctx, 0, int64(pages)*pagecache.PageSize); err != nil {
		tb.Fatal(err)
	}
	_, pl := serveT(tb, mem, Config{})
	cl := dialT(tb, pl)
	// The session publishes its direct entry point right after it starts
	// its goroutines, which the handshake can outrun.
	waitFor(tb, "direct dispatch", func() bool { return cl.dc.getDirect() != nil })
	return cl
}

// scanner returns a step that reads the next 4KiB page of f, wrapping at
// the end of the file.
func scanner(tb testing.TB, f vfs.File, ctx *sim.Ctx, pages int) func() {
	buf := make([]byte, pagecache.PageSize)
	next := 0
	return func() {
		if n, err := f.ReadAt(ctx, buf, int64(next)*pagecache.PageSize); err != nil || n != len(buf) {
			tb.Fatalf("read page %d: n=%d err=%v", next, n, err)
		}
		next = (next + 1) % pages
	}
}

// TestDirectReadMissAllocs pins the whole cached serving path on a miss:
// page cache → client → direct dispatch → session → stub FS and back, 4KiB
// at a time through a cache too small to ever hit. The request and
// response frames, the page frame and the decoders are all reused; the
// allowance of 2 is for the runtime, not for any of them.
func TestDirectReadMissAllocs(t *testing.T) {
	const pages = 64
	cl := memServed(t, pages)
	c := pagecache.New(cl, pagecache.Config{MaxPages: 8})
	ctx := sim.NewCtx(100, 0)
	f, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	step := scanner(t, f, ctx, pages)
	for i := 0; i < 2*pages; i++ {
		step() // fill the cache so frames recycle, size the wire buffers
	}
	before := c.Stats()
	if n := testing.AllocsPerRun(200, step); n > 2 {
		t.Errorf("4KiB read miss through cache and server: %v allocs, want ≤ 2", n)
	}
	after := cacheStats(t, c)
	if after.Hits != before.Hits || after.Misses-before.Misses < 200 {
		t.Fatalf("the reads were not all misses: %+v → %+v", before, after)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDirectRead4K(b *testing.B) {
	const pages = 1024
	cl := memServed(b, pages)
	ctx := sim.NewCtx(100, 0)
	f, err := cl.Open(ctx, "/f")
	if err != nil {
		b.Fatal(err)
	}
	step := scanner(b, f, ctx, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestReopenAllocations pins the writer's reopen cycle srv_cached runs:
// two caches on one server, B reading a shared file that A closes,
// reopens, writes and fsyncs, and B's next read revoking the write lease
// A's write took. The page cache's file state, the lease record, the
// conflict and waiter lists, the revoke timer and the frame headers are
// reused, and winefs hands back the inode's own File. What is left is six
// objects: the two handles the reopen returns (the cache's and the
// client's), the path string the server decodes, the channel the revoking
// request waits on, and the two goroutines of the revoke protocol — the
// server's push and the client's handler.
func TestReopenAllocations(t *testing.T) {
	_, pl, _ := newServerFS(t, pmem.New(64<<20), Config{})
	cacheA := pagecache.New(dialT(t, pl), pagecache.Config{})
	cacheB := pagecache.New(dialT(t, pl), pagecache.Config{})
	ctxA, ctxB := sim.NewCtx(100, 0), sim.NewCtx(101, 1)
	buf := make([]byte, pagecache.PageSize)
	fa, err := cacheA.Create(ctxA, "/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Append(ctxA, buf); err != nil {
		t.Fatal(err)
	}
	fb, err := cacheB.Open(ctxB, "/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.ReadAt(ctxB, buf, 0); err != nil {
		t.Fatal(err)
	}
	revokes := func() int64 { return cacheStats(t, cacheA).Revokes + cacheStats(t, cacheB).Revokes }
	step := func() {
		if err := fa.Close(ctxA); err != nil {
			t.Fatal(err)
		}
		if fa, err = cacheA.Open(ctxA, "/s"); err != nil {
			t.Fatal(err)
		}
		if _, err := fa.WriteAt(ctxA, buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := fa.Fsync(ctxA); err != nil {
			t.Fatal(err)
		}
		if _, err := fb.ReadAt(ctxB, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step() // the pools, the maps and the wire buffers reach their size
	}
	before := revokes()
	const runs = 200
	if n := testing.AllocsPerRun(runs, step); n > 6 {
		t.Errorf("reopen, write, fsync and revoke: %v allocs, want ≤ 6", n)
	}
	if got := revokes() - before; got < runs {
		t.Fatalf("%d revokes in %d steps: the cycle did not revoke every time", got, runs)
	}
	if err := fa.Close(ctxA); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(ctxB); err != nil {
		t.Fatal(err)
	}
}
