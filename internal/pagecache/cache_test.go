package pagecache_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// leaseFS adapts a plain local WineFS into a Leasable+RevokeSource backing
// store, standing in for fileserver.Client so the cache's own mechanics —
// LRU, dirty bound, sticky flush errors, revoke flush-and-invalidate —
// test without a server in the loop. Revocations are injected by the test
// through Revoke, and WriteAt failures are armed through failWith.
type leaseFS struct {
	vfs.FS
	mu      sync.Mutex
	handler func(ino uint64)
	deny    atomic.Bool // refuse all lease requests
	failErr atomic.Pointer[error]
}

func newLeaseFS(t *testing.T) *leaseFS {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: 2, Mode: vfs.Strict})
	if err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	return &leaseFS{FS: fs}
}

func (l *leaseFS) SetRevokeHandler(h func(ino uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler = h
}

// Revoke delivers a server-initiated lease revocation, synchronously like
// the real transport: the "server" waits for the flush before returning.
func (l *leaseFS) Revoke(ino uint64) {
	l.mu.Lock()
	h := l.handler
	l.mu.Unlock()
	if h != nil {
		h(ino)
	}
}

// failWith arms every subsequent WriteAt (including cache write-backs) to
// fail with err; nil disarms.
func (l *leaseFS) failWith(err error) {
	if err == nil {
		l.failErr.Store(nil)
		return
	}
	l.failErr.Store(&err)
}

func (l *leaseFS) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	f, err := l.FS.Create(ctx, path)
	if err != nil {
		return nil, err
	}
	return &leaseFile{File: f, fs: l}, nil
}

func (l *leaseFS) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	f, err := l.FS.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return &leaseFile{File: f, fs: l}, nil
}

type leaseFile struct {
	vfs.File
	fs *leaseFS
}

func (f *leaseFile) Lease(ctx *sim.Ctx, write bool) (bool, error) {
	return !f.fs.deny.Load(), nil
}

func (f *leaseFile) Unlease(ctx *sim.Ctx) error { return nil }

func (f *leaseFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if ep := f.fs.failErr.Load(); ep != nil {
		return 0, *ep
	}
	return f.File.WriteAt(ctx, p, off)
}

var _ pagecache.Leasable = (*leaseFile)(nil)
var _ pagecache.RevokeSource = (*leaseFS)(nil)

// stats snapshots the cache's counters after checking its structure, so
// every point where a test inspects the cache also audits the two lists,
// the dirty counts and the free list.
func stats(t *testing.T, c *pagecache.Cache) pagecache.Stats {
	t.Helper()
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

func pattern(p []byte, salt int) {
	for i := range p {
		p[i] = byte(salt*37 + i*13 + 5)
	}
}

// TestHitServesFromCacheCheaper checks the core value proposition: the
// second read of a page is byte-identical and far cheaper in virtual time
// than the first (which paid the backing store's device cost).
func TestHitServesFromCacheCheaper(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)

	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := make([]byte, 2*pagecache.PageSize)
	pattern(want, 1)
	if _, err := f.Append(ctx, want); err != nil {
		t.Fatalf("append: %v", err)
	}

	// Drop the appended pages so the first read is a genuine miss.
	lfs.Revoke(f.Ino())
	f.Close(ctx)
	f, err = c.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f.Close(ctx)

	got := make([]byte, len(want))
	t0 := ctx.Now()
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("miss read: %v", err)
	}
	missNS := ctx.Now() - t0
	if !bytes.Equal(got, want) {
		t.Fatalf("miss read returned wrong bytes")
	}

	t0 = ctx.Now()
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("hit read: %v", err)
	}
	hitNS := ctx.Now() - t0
	if !bytes.Equal(got, want) {
		t.Fatalf("hit read returned wrong bytes")
	}
	if hitNS*5 > missNS {
		t.Fatalf("hit cost %dns is not ≥5x cheaper than miss cost %dns", hitNS, missNS)
	}
	st := stats(t, c)
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats did not record both hits and misses: %+v", st)
	}
}

// TestDeniedLeaseIsPassThrough checks that a refused lease leaves the file
// fully functional, just uncached.
func TestDeniedLeaseIsPassThrough(t *testing.T) {
	lfs := newLeaseFS(t)
	lfs.deny.Store(true)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)

	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := make([]byte, pagecache.PageSize)
	pattern(want, 2)
	if _, err := f.Append(ctx, want); err != nil {
		t.Fatalf("append: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pass-through read returned wrong bytes")
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := stats(t, c); st.Hits != 0 || st.Pages != 0 {
		t.Fatalf("unleased file left cache state behind: %+v", st)
	}
}

// TestCanonicalPathKeying is the regression test for cache keying: "/a//b"
// and "/a/b" must resolve to ONE attribute entry, and the messy spelling
// must hit the entry the clean spelling created.
func TestCanonicalPathKeying(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)

	if err := c.Mkdir(ctx, "/d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	f, err := c.Create(ctx, "/d//f") // messy spelling at create time
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer f.Close(ctx)
	if _, err := f.Append(ctx, []byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}

	if _, err := c.Stat(ctx, "/d/f"); err != nil { // miss, fills the entry
		t.Fatalf("stat clean: %v", err)
	}
	before := stats(t, c)
	fi, err := c.Stat(ctx, "/d//f") // must hit the same entry
	if err != nil {
		t.Fatalf("stat messy: %v", err)
	}
	after := stats(t, c)
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("messy spelling missed: before %+v after %+v", before, after)
	}
	if after.AttrEntries != 1 {
		t.Fatalf("AttrEntries = %d, want 1 (duplicate key for one file)", after.AttrEntries)
	}
	if fi.Size != 1 {
		t.Fatalf("stat size = %d, want 1", fi.Size)
	}
}

// TestLRUEvictsCleanPages checks the page bound: reading more pages than
// MaxPages evicts the least recently used clean ones and never exceeds the
// bound.
func TestLRUEvictsCleanPages(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{MaxPages: 4, MaxDirty: 64})
	ctx := sim.NewCtx(100, 0)

	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer f.Close(ctx)
	const pages = 8
	want := make([]byte, pages*pagecache.PageSize)
	pattern(want, 3)
	if _, err := f.Append(ctx, want); err != nil {
		t.Fatalf("append: %v", err)
	}
	got := make([]byte, len(want))
	for round := 0; round < 2; round++ {
		if _, err := f.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("read round %d: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read round %d returned wrong bytes", round)
		}
	}
	st := stats(t, c)
	if st.Pages > 4 {
		t.Fatalf("Pages = %d, exceeds MaxPages 4", st.Pages)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite %d pages through a 4-page cache", pages)
	}
}

// TestDirtyBoundFlushes checks the write-back bound: dirtying more than
// MaxDirty pages flushes the excess synchronously, and Fsync drains the
// rest so the backing store holds the full image.
func TestDirtyBoundFlushes(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{MaxPages: 64, MaxDirty: 2})
	ctx := sim.NewCtx(100, 0)

	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const pages = 5
	want := make([]byte, pages*pagecache.PageSize)
	pattern(want, 4)
	for i := 0; i < pages; i++ {
		chunk := want[i*pagecache.PageSize : (i+1)*pagecache.PageSize]
		if _, err := f.WriteAt(ctx, chunk, int64(i*pagecache.PageSize)); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	st := stats(t, c)
	if st.DirtyPages > 2 {
		t.Fatalf("DirtyPages = %d, exceeds MaxDirty 2", st.DirtyPages)
	}
	if st.FlushedBytes < (pages-2)*pagecache.PageSize {
		t.Fatalf("FlushedBytes = %d, want at least %d from threshold flushing",
			st.FlushedBytes, (pages-2)*pagecache.PageSize)
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	if st := stats(t, c); st.DirtyPages != 0 || st.FlushedBytes != pages*pagecache.PageSize {
		t.Fatalf("after fsync: %+v, want 0 dirty and %d flushed", st, pages*pagecache.PageSize)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The backing store, read directly, holds the complete image.
	inner, err := lfs.FS.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("open inner: %v", err)
	}
	defer inner.Close(ctx)
	got := make([]byte, len(want))
	if n, err := inner.ReadAt(ctx, got, 0); err != nil || n != len(want) {
		t.Fatalf("inner read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("backing store does not hold the flushed image")
	}
}

// TestDefaultDirtyBoundIsAFifth pins the default dirty bound at Linux's
// vm.dirty_ratio of 20%: one thread may dirty a fifth of the cache's pages
// without a write-back, and the next page it dirties writes back exactly
// one.
func TestDefaultDirtyBoundIsAFifth(t *testing.T) {
	const maxPages = 100
	c, f, ctx := memCache(t, pagecache.Config{MaxPages: maxPages}, maxPages)
	buf := make([]byte, pagecache.PageSize)
	write := func(page int) {
		t.Helper()
		if _, err := f.WriteAt(ctx, buf, int64(page)*pagecache.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	const bound = maxPages / 5
	for page := 0; page < bound; page++ {
		write(page)
	}
	if st := stats(t, c); st.DirtyPages != bound || st.FlushedBytes != 0 {
		t.Fatalf("after dirtying %d of %d pages: %d dirty, %d bytes written back; want %d dirty and none written back",
			bound, maxPages, st.DirtyPages, st.FlushedBytes, bound)
	}
	write(bound)
	if st := stats(t, c); st.DirtyPages != bound || st.FlushedBytes != pagecache.PageSize {
		t.Fatalf("after one more page: %d dirty, %d bytes written back; want %d dirty and one page (%d bytes) written back",
			st.DirtyPages, st.FlushedBytes, bound, pagecache.PageSize)
	}
}

// TestPoisonedRevokeFlushSurfacesEIO is the media-fault satellite (and part
// of the fault-campaign make target): a revoke arrives while the client
// holds dirty pages, the write-back hits an uncorrectable media error, and
// the failure must surface to the writer as EIO on its next operation —
// never a silent drop — whichever operation that is: a write, or one the
// cache otherwise passes straight through, like a Fallocate, which must
// not move the size before the writer has seen the error.
func TestPoisonedRevokeFlushSurfacesEIO(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)
	buf := make([]byte, pagecache.PageSize)
	pattern(buf, 5)

	for round, next := range []struct {
		name string
		op   func(f vfs.File) error
	}{
		{"write", func(f vfs.File) error { _, err := f.WriteAt(ctx, buf, 0); return err }},
		{"fallocate", func(f vfs.File) error { return f.Fallocate(ctx, 0, 8*pagecache.PageSize) }},
		{"setxattr", func(f vfs.File) error { return f.SetXattr(ctx, "user.k", []byte("v")) }},
	} {
		f, err := c.Create(ctx, "/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if st := stats(t, c); st.DirtyPages != 1 {
			t.Fatalf("DirtyPages = %d, want 1 before the revoke", st.DirtyPages)
		}

		// The file's media goes bad, then the server revokes the lease: the
		// flush-and-invalidate write-back fails.
		media := &pmem.MediaError{Off: 0, Len: pagecache.PageSize, Line: 0}
		lfs.failWith(fmt.Errorf("%w: %v", vfs.ErrIO, media))
		lfs.Revoke(f.Ino())

		st := stats(t, c)
		if st.FlushErrors != int64(round+1) {
			t.Fatalf("FlushErrors = %d, want %d", st.FlushErrors, round+1)
		}
		if st.DirtyPages != 0 || st.Pages != 0 {
			t.Fatalf("revoke left cached pages behind: %+v", st)
		}
		// The writer's next operation observes EIO; it is not dropped, and
		// the operation itself did not happen.
		size := f.Size()
		if err := next.op(f); !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("%s after failed revoke flush: err = %v, want EIO", next.name, err)
		}
		if f.Size() != size {
			t.Fatalf("the refused %s moved the size from %d to %d", next.name, size, f.Size())
		}
		lfs.failWith(nil)
		// The error was consumed; the file keeps working (pass-through now).
		if err := next.op(f); err != nil {
			t.Fatalf("%s after surfacing the error: %v", next.name, err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestCloseFlushesAndReleases checks that the last close drains dirt to the
// backing store, releases state, and a reopened handle sees it.
func TestCloseFlushesAndReleases(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)

	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := make([]byte, 3*pagecache.PageSize)
	pattern(want, 6)
	if _, err := f.WriteAt(ctx, want, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := stats(t, c); st.Pages != 0 || st.DirtyPages != 0 || st.AttrEntries != 0 {
		t.Fatalf("close left state behind: %+v", st)
	}

	g, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g.Close(ctx)
	got := make([]byte, len(want))
	if n, err := g.ReadAt(ctx, got, 0); err != nil || n != len(want) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened file does not hold the written image")
	}
}

// TestCloseTwiceLeavesTheReopenedFileAlone closes a handle a second time
// after the file was reopened through another: the second Close must fail
// with vfs.ErrClosed and leave the new handle's cached state whole.
func TestCloseTwiceLeavesTheReopenedFileAlone(t *testing.T) {
	lfs := newLeaseFS(t)
	c := pagecache.New(lfs, pagecache.Config{})
	ctx := sim.NewCtx(100, 0)

	a, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want := make([]byte, pagecache.PageSize)
	pattern(want, 9)
	if _, err := a.Append(ctx, want); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := a.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := b.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := a.Close(ctx); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("second close: %v, want %v", err, vfs.ErrClosed)
	}
	if st := stats(t, c); st.Pages != 1 {
		t.Fatalf("second close dropped the reopened file's page: %+v", st)
	}
	before := stats(t, c).Hits
	if _, err := b.ReadAt(ctx, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reread: err=%v, bytes match=%v", err, bytes.Equal(got, want))
	}
	if stats(t, c).Hits != before+1 {
		t.Fatal("the reopened file no longer hits in the cache")
	}
	if err := b.Close(ctx); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}
