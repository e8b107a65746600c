package pagecache_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fstest"
	"repro/internal/pagecache"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// memCache opens one file of the given size through a cache over an
// in-memory stub: nothing below the cache allocates or charges time, so
// the pins and benchmarks here see the cache alone.
func memCache(tb testing.TB, cfg pagecache.Config, pages int) (*pagecache.Cache, vfs.File, *sim.Ctx) {
	tb.Helper()
	mem := fstest.NewMemFS()
	ctx := sim.NewCtx(100, 0)
	f, err := mem.Create(ctx, "/f")
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Fallocate(ctx, 0, int64(pages)*pagecache.PageSize); err != nil {
		tb.Fatal(err)
	}
	c := pagecache.New(mem, cfg)
	cf, err := c.Open(ctx, "/f")
	if err != nil {
		tb.Fatal(err)
	}
	return c, cf, ctx
}

// TestCachedHitsDoNotAllocate pins the cached paths at zero allocations: a
// read hit, a write hit that stays under the dirty bound, and — once the
// cache is full and frames recycle — a miss that evicts and a write that
// triggers a threshold flush.
func TestCachedHitsDoNotAllocate(t *testing.T) {
	const pages = 64
	c, f, ctx := memCache(t, pagecache.Config{MaxPages: 16, MaxDirty: 4}, pages)
	buf := make([]byte, pagecache.PageSize)
	op := func(write bool, page int) {
		var err error
		if write {
			_, err = f.WriteAt(ctx, buf, int64(page)*pagecache.PageSize)
		} else {
			_, err = f.ReadAt(ctx, buf, int64(page)*pagecache.PageSize)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"read hit", func() { op(false, 3) }},
		{"write hit under the dirty bound", func() { op(true, 3) }},
		{"read miss that evicts", func() { next = (next + 1) % pages; op(false, next) }},
		{"write that threshold-flushes", func() { next = (next + 1) % pages; op(true, next) }},
	} {
		for i := 0; i < 2*pages; i++ {
			tc.run() // fill the cache, reach the dirty bound, grow the stub's file
		}
		if n := testing.AllocsPerRun(200, tc.run); n != 0 {
			t.Errorf("%s: %v allocs per operation, want 0", tc.name, n)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 || st.FlushedBytes == 0 {
		t.Fatalf("the four paths did not all run: %+v", st)
	}
}

// TestFsyncDoesNotAllocate pins batch write-back — fsync, and with it
// close, revoke, mapping and unmount, which collect through the same
// function — at zero allocations once the cache's batch scratch has grown
// to the batch's size: the dirty pages are copied into memory the cache
// keeps, not into a fresh slice per page.
func TestFsyncDoesNotAllocate(t *testing.T) {
	const dirty = 8
	c, f, ctx := memCache(t, pagecache.Config{MaxPages: 32, MaxDirty: 16}, dirty)
	buf := make([]byte, pagecache.PageSize)
	run := func() {
		for p := 0; p < dirty; p++ {
			if _, err := f.WriteAt(ctx, buf, int64(p)*pagecache.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := c.Stats().FlushedBytes
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("fsync of %d dirty pages: %v allocs, want 0", dirty, n)
	}
	st := stats(t, c)
	if got := st.FlushedBytes - before; got != 101*dirty*pagecache.PageSize || st.DirtyPages != 0 {
		t.Fatalf("101 fsyncs flushed %d bytes, want %d pages each: %+v", got, dirty, st)
	}
}

func BenchmarkCachedReadHit(b *testing.B) {
	const pages = 1024
	_, f, ctx := memCache(b, pagecache.Config{}, pages)
	buf := make([]byte, pagecache.PageSize)
	for i := 0; i < pages; i++ {
		f.ReadAt(ctx, buf, int64(i)*pagecache.PageSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(ctx, buf, int64(i%pages)*pagecache.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDirtyBound is how many pages may be dirty in the write benchmark,
// whatever the cache size: the default bound of the default 4,096-page
// cache. Holding it fixed leaves the page count as the only variable.
const benchDirtyBound = 512

// dirtyBoundWriter returns a cache of the given size, full, with the dirty
// set at its bound, and a step function: each step dirties the one clean
// page of a (benchDirtyBound+1)-page ring at the front of the LRU, which
// takes the dirty set over the bound and flushes the oldest dirty page —
// the next one in the ring. Behind the ring, pages-benchDirtyBound-1 clean
// pages sit at the LRU tail: what a scan from the tail for the oldest
// dirty page would have to cross on every step, and the dirty list never
// visits.
func dirtyBoundWriter(tb testing.TB, pages int) (c *pagecache.Cache, step func()) {
	c, f, ctx := memCache(tb, pagecache.Config{MaxPages: pages, MaxDirty: benchDirtyBound}, pages)
	buf := make([]byte, pagecache.PageSize)
	write := func(page int) {
		if _, err := f.WriteAt(ctx, buf, int64(page)*pagecache.PageSize); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		write(i) // the last benchDirtyBound stay dirty, the rest are flushed clean
	}
	const ring = benchDirtyBound + 1
	next := pages - ring // the youngest clean page: the ring's first
	return c, func() {
		write(next)
		if next++; next == pages {
			next = pages - ring
		}
	}
}

func BenchmarkCachedWriteAtDirtyBound(b *testing.B) {
	for _, pages := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			_, step := dirtyBoundWriter(b, pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestWriteAtDirtyBoundIsO1 is the O(1) claim as a test: a write that
// overflows the dirty bound costs the same in a 65,536-page cache as in a
// 4,096-page one (within 1.5x; the tail scan it replaced grew 16x). Each
// size is timed as the fastest of five batches, which is what the host can
// do when nothing else runs.
func TestWriteAtDirtyBoundIsO1(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 512MiB")
	}
	nsPerOp := func(pages int) float64 {
		c, step := dirtyBoundWriter(t, pages)
		const batch = 50_000
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			for j := 0; j < batch; j++ {
				step()
			}
			best = min(best, time.Since(start))
		}
		if st := c.Stats(); st.DirtyPages != benchDirtyBound || st.Pages != pages {
			t.Fatalf("pages=%d: not at the dirty bound in a full cache: %+v", pages, st)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		return float64(best.Nanoseconds()) / batch
	}
	small, large := nsPerOp(4096), nsPerOp(65536)
	t.Logf("write at the dirty bound: %.0f ns/op at 4096 pages, %.0f ns/op at 65536", small, large)
	if large > 1.5*small {
		t.Fatalf("cost grows with the cache: %.0f ns/op at 65536 pages vs %.0f at 4096", large, small)
	}
}
