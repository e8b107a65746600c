package winefs_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fstest"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

func newFS(t *testing.T, size int64, opts winefs.Options) (*winefs.FS, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(size)
	fs, err := winefs.Mkfs(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctx
}

func defaultFS(t *testing.T) (*winefs.FS, *sim.Ctx) {
	return newFS(t, 256<<20, winefs.Options{CPUs: 4, Mode: vfs.Strict})
}

// replay replays steps on fs and fails t at the first that goes wrong.
func replay(t *testing.T, ctx *sim.Ctx, fs vfs.FS, steps []fstest.Step) {
	t.Helper()
	if err := fstest.Replay(ctx, fs, steps); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, err := fs.Create(ctx, "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("wine ages gracefully")
	if n, err := f.WriteAt(ctx, data, 0); err != nil || n != len(data) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(ctx, got, 0); err != nil || n != len(data) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
	// Read past EOF.
	if n, err := f.ReadAt(ctx, got, 1000); err != nil || n != 0 {
		t.Fatalf("past-EOF read: n=%d err=%v", n, err)
	}
}

// TestRootPathOpsRejected: every spelling that cleans to "/" has no final
// path element, so namespace-mutating ops must refuse it (via
// vfs.SplitParent) instead of manufacturing a nameless dirent.
func TestRootPathOpsRejected(t *testing.T) {
	fs, ctx := defaultFS(t)
	replay(t, ctx, fs, []fstest.Step{{Op: fstest.Op{Kind: fstest.Mkdir, A: "/scratch"}}})
	for _, p := range []string{"/", "", "//", "/.", "/scratch/..", "/../."} {
		for _, o := range []fstest.Op{
			{Kind: fstest.Create, A: p}, {Kind: fstest.Mkdir, A: p}, {Kind: fstest.Unlink, A: p}, {Kind: fstest.Rmdir, A: p},
			{Kind: fstest.Rename, A: p, B: "/elsewhere"}, {Kind: fstest.Rename, A: "/scratch", B: p},
		} {
			if err := fstest.Apply(ctx, fs, o); err != vfs.ErrExist {
				t.Errorf("%s (path %q) = %v, want ErrExist", o, p, err)
			}
		}
	}
	// Read-only ops on the root keep working.
	if fi, err := fs.Stat(ctx, "/"); err != nil || !fi.IsDir {
		t.Fatalf("Stat(/) = %+v, %v", fi, err)
	}
	if _, err := fs.ReadDir(ctx, "/"); err != nil {
		t.Fatalf("ReadDir(/) = %v", err)
	}
	// No empty-named dirent appeared anywhere.
	ents, err := fs.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name == "" {
			t.Fatal("empty-named dirent manufactured in root")
		}
	}
}

func TestCreateInSubdir(t *testing.T) {
	fs, ctx := defaultFS(t)
	replay(t, ctx, fs, []fstest.Step{
		{Op: fstest.Op{Kind: fstest.Mkdir, A: "/a"}},
		{Op: fstest.Op{Kind: fstest.Mkdir, A: "/a/b"}},
		{Op: fstest.Op{Kind: fstest.Create, A: "/a/b/f"}},
		{Op: fstest.Op{Kind: fstest.Create, A: "/missing/f"}, Want: vfs.ErrNotExist},
		{Op: fstest.Op{Kind: fstest.Mkdir, A: "/a"}, Want: vfs.ErrExist},
	})
	if fi, err := fs.Stat(ctx, "/a/b/f"); err != nil || fi.IsDir {
		t.Fatalf("stat: %+v err=%v", fi, err)
	}
}

func TestUnlinkAndSpaceReclaim(t *testing.T) {
	fs, ctx := defaultFS(t)
	// Warm the root directory so its dirent block is already allocated.
	fs.Create(ctx, "/warm")
	before := fs.StatFS(ctx).FreeBlocks
	f, _ := fs.Create(ctx, "/big")
	if err := f.Fallocate(ctx, 0, 8<<20); err != nil {
		t.Fatal(err)
	}
	mid := fs.StatFS(ctx).FreeBlocks
	if before-mid < (8<<20)/winefs.BlockSize {
		t.Fatalf("allocation did not consume space: %d -> %d", before, mid)
	}
	if err := fs.Unlink(ctx, "/big"); err != nil {
		t.Fatal(err)
	}
	after := fs.StatFS(ctx).FreeBlocks
	if after != before {
		t.Fatalf("space leak after unlink: before=%d after=%d", before, after)
	}
	if _, err := fs.Open(ctx, "/big"); err != vfs.ErrNotExist {
		t.Fatalf("open deleted: %v", err)
	}
}

func TestAlignedPoolRestoredAfterDelete(t *testing.T) {
	// The allocator invariant at the heart of aging resistance: freeing a
	// hugepage-sized file restores the aligned extent pool exactly.
	fs, ctx := defaultFS(t)
	fs.Create(ctx, "/warm") // pre-allocate the root dirent block
	a0 := fs.StatFS(ctx).FreeAligned2M
	f, _ := fs.Create(ctx, "/x")
	if err := f.Fallocate(ctx, 0, 16*alloc.HugeBytes); err != nil {
		t.Fatal(err)
	}
	if got := fs.StatFS(ctx).FreeAligned2M; got != a0-16 {
		t.Fatalf("aligned extents after alloc = %d, want %d", got, a0-16)
	}
	if err := fs.Unlink(ctx, "/x"); err != nil {
		t.Fatal(err)
	}
	if got := fs.StatFS(ctx).FreeAligned2M; got != a0 {
		t.Fatalf("aligned extents after delete = %d, want %d", got, a0)
	}
}

func TestSmallFilesUseHoles(t *testing.T) {
	// Small allocations must come from holes (broken-up aligned extents),
	// not consume one aligned extent each.
	fs, ctx := defaultFS(t)
	a0 := fs.StatFS(ctx).FreeAligned2M
	for i := 0; i < 100; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/small%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, make([]byte, 4096), 0); err != nil {
			t.Fatal(err)
		}
	}
	used := a0 - fs.StatFS(ctx).FreeAligned2M
	// 100 small files (+dir blocks) should fit in a handful of broken
	// extents, not one per file.
	if used > 3 {
		t.Fatalf("small files consumed %d aligned extents", used)
	}
}

func TestLargeFileGetsAlignedExtents(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/large")
	data := make([]byte, 4*alloc.HugeBytes)
	if _, err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	for chunk := int64(0); chunk < 4*mmu.HugePage; chunk += mmu.HugePage {
		if !hugeAt(f, chunk) {
			t.Fatalf("chunk %d of large file not hugepage-eligible: %+v", chunk, f.Extents())
		}
	}
}

func TestMmapLargeFileUsesHugepages(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/m")
	if err := f.Fallocate(ctx, 0, 4*alloc.HugeBytes); err != nil {
		t.Fatal(err)
	}
	m, err := f.Mmap(ctx, 4*mmu.HugePage)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if err := m.Touch(ctx, 0, 4*mmu.HugePage, true); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.HugeFaults != 4 || ctx.Counters.PageFaults != 0 {
		t.Fatalf("faults: huge=%d base=%d", ctx.Counters.HugeFaults, ctx.Counters.PageFaults)
	}
}

func TestSparseMmapAllocatesOnFault(t *testing.T) {
	// LMDB-style: ftruncate to a large size, fault on demand. WineFS should
	// serve whole aligned chunks so even sparse mappings get hugepages.
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/sparse")
	if err := f.Truncate(ctx, 8*mmu.HugePage); err != nil {
		t.Fatal(err)
	}
	if got := fs.StatFS(ctx).FreeBlocks; got == 0 {
		t.Fatal("truncate should not allocate")
	}
	m, err := f.Mmap(ctx, 8*mmu.HugePage)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	// Touch one byte in chunk 3.
	if err := m.Write(ctx, []byte{42}, 3*mmu.HugePage+100); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.HugeFaults != 1 {
		t.Fatalf("sparse fault not served with hugepage: huge=%d base=%d",
			ctx.Counters.HugeFaults, ctx.Counters.PageFaults)
	}
	// The data must be readable through the file interface too.
	var b [1]byte
	if _, err := f.ReadAt(ctx, b[:], 3*mmu.HugePage+100); err != nil || b[0] != 42 {
		t.Fatalf("read through syscall: %v %d", err, b[0])
	}
}

func TestSparseReadIsZero(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/s")
	if err := f.Truncate(ctx, 1<<20); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xff
	}
	if _, err := f.ReadAt(ctx, buf, 8192); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("sparse read not zero")
		}
	}
}

func TestOverwriteStrictPreservesContent(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/o")
	base := make([]byte, 64<<10)
	for i := range base {
		base[i] = byte(i % 251)
	}
	if _, err := f.WriteAt(ctx, base, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a misaligned middle range (hole-backed file → CoW path).
	patch := bytes.Repeat([]byte{0xEE}, 5000)
	if _, err := f.WriteAt(ctx, patch, 1234); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[1234:], patch)
	got := make([]byte, len(base))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite corrupted file")
	}
	if ctx.Counters.CoWCopies == 0 {
		t.Fatal("expected CoW for hole-backed overwrite in strict mode")
	}
}

func TestOverwriteAlignedUsesDataJournal(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/aj")
	if _, err := f.WriteAt(ctx, make([]byte, 2*alloc.HugeBytes), 0); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := f.WriteAt(ctx, make([]byte, 8192), 4096); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.CoWCopies != 0 {
		t.Fatal("aligned-extent overwrite must not CoW (it would lose hugepages)")
	}
	if ctx.Counters.JournalBytes < 8192 {
		t.Fatalf("expected data journaling, journal bytes = %d", ctx.Counters.JournalBytes)
	}
	// Layout must still be hugepage-eligible.
	if !hugeAt(f, 0) {
		t.Fatal("overwrite destroyed alignment")
	}
}

func TestRelaxedModeSkipsDataAtomicity(t *testing.T) {
	fs, ctx := newFS(t, 256<<20, winefs.Options{CPUs: 4, Mode: vfs.Relaxed})
	f, _ := fs.Create(ctx, "/r")
	if _, err := f.WriteAt(ctx, make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := f.WriteAt(ctx, make([]byte, 8192), 1000); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.CoWCopies != 0 {
		t.Fatal("relaxed mode must not CoW")
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAppendGrowsWithoutCopy(t *testing.T) {
	// The WiredTiger case (§5.5): unaligned appends continue in the
	// partially filled last block without copying old data.
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/wt")
	chunk := make([]byte, 1000) // unaligned append size
	for i := 0; i < 50; i++ {
		for j := range chunk {
			chunk[j] = byte(i)
		}
		if _, err := f.Append(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 50000 {
		t.Fatalf("size after appends = %d", f.Size())
	}
	got := make([]byte, 1000)
	if _, err := f.ReadAt(ctx, got, 17*1000); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 17 {
			t.Fatalf("append data corrupted: %d", b)
		}
	}
	if ctx.Counters.CoWCopies != 0 {
		t.Fatal("appends must not trigger CoW")
	}
}

func TestRename(t *testing.T) {
	fs, ctx := defaultFS(t)
	fs.Mkdir(ctx, "/d1")
	fs.Mkdir(ctx, "/d2")
	f, _ := fs.Create(ctx, "/d1/f")
	f.WriteAt(ctx, []byte("payload"), 0)
	if err := fs.Rename(ctx, "/d1/f", "/d2/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "/d1/f"); err != vfs.ErrNotExist {
		t.Fatalf("old path: %v", err)
	}
	g, err := fs.Open(ctx, "/d2/g")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	g.ReadAt(ctx, buf, 0)
	if string(buf) != "payload" {
		t.Fatalf("content after rename: %q", buf)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	fs, ctx := defaultFS(t)
	a, _ := fs.Create(ctx, "/a")
	a.WriteAt(ctx, []byte("AAA"), 0)
	b, _ := fs.Create(ctx, "/b")
	b.WriteAt(ctx, []byte("BBBBBB"), 0)
	free0 := fs.StatFS(ctx).FreeBlocks
	if err := fs.Rename(ctx, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Open(ctx, "/b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 3 {
		t.Fatalf("replaced target size = %d", got.Size())
	}
	if fs.StatFS(ctx).FreeBlocks <= free0 {
		t.Fatal("victim's blocks were not freed")
	}
}

func TestRmdirSemantics(t *testing.T) {
	fs, ctx := defaultFS(t)
	replay(t, ctx, fs, []fstest.Step{
		{Op: fstest.Op{Kind: fstest.Mkdir, A: "/d"}},
		{Op: fstest.Op{Kind: fstest.Create, A: "/d/f"}},
		{Op: fstest.Op{Kind: fstest.Rmdir, A: "/d"}, Want: vfs.ErrNotEmpty},
		{Op: fstest.Op{Kind: fstest.Unlink, A: "/d/f"}},
		{Op: fstest.Op{Kind: fstest.Rmdir, A: "/d"}},
		{Op: fstest.Op{Kind: fstest.Rmdir, A: "/d"}, Want: vfs.ErrNotExist},
	})
}

func TestReadDir(t *testing.T) {
	fs, ctx := defaultFS(t)
	names := []string{"zeta", "alpha", "mid"}
	for _, n := range names {
		fs.Create(ctx, "/"+n)
	}
	fs.Mkdir(ctx, "/sub")
	ents, err := fs.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("readdir count = %d", len(ents))
	}
	// rbtree index yields sorted order.
	if ents[0].Name != "alpha" || ents[3].Name != "zeta" {
		t.Fatalf("order: %+v", ents)
	}
	for _, e := range ents {
		if e.Name == "sub" && !e.IsDir {
			t.Fatal("sub not marked dir")
		}
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	// Forces directory growth across multiple dirent blocks.
	fs, ctx := defaultFS(t)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := fs.Create(ctx, fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, _ := fs.ReadDir(ctx, "/")
	if len(ents) != n {
		t.Fatalf("count = %d", len(ents))
	}
	// Delete half, re-create with different names (slot reuse).
	for i := 0; i < n; i += 2 {
		if err := fs.Unlink(ctx, fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(ctx, fmt.Sprintf("/g%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ents, _ = fs.ReadDir(ctx, "/")
	if len(ents) != n/2+100 {
		t.Fatalf("after churn = %d", len(ents))
	}
}

func TestXattrAlignedHint(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/hint")
	if _, ok := f.GetXattr(ctx, vfs.XattrAligned); ok {
		t.Fatal("fresh file has aligned xattr")
	}
	if err := f.SetXattr(ctx, vfs.XattrAligned, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.GetXattr(ctx, vfs.XattrAligned); !ok {
		t.Fatal("xattr not set")
	}
	// With the hint, even a small-ish write gets an aligned extent
	// (rsync/cp receive-side behaviour, §3.6).
	if _, err := f.WriteAt(ctx, make([]byte, 300<<10), 0); err != nil {
		t.Fatal(err)
	}
	exts := f.Extents()
	if len(exts) == 0 || exts[0].Phys%mmu.HugePage != 0 {
		t.Fatalf("hinted file not aligned: %+v", exts)
	}
}

func TestTruncateShrinkFreesBlocks(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/t")
	f.WriteAt(ctx, make([]byte, 8<<20), 0)
	free0 := fs.StatFS(ctx).FreeBlocks
	if err := f.Truncate(ctx, 1<<20); err != nil {
		t.Fatal(err)
	}
	free1 := fs.StatFS(ctx).FreeBlocks
	if free1-free0 < (7<<20)/winefs.BlockSize-1 {
		t.Fatalf("truncate freed %d blocks", free1-free0)
	}
	if f.Size() != 1<<20 {
		t.Fatalf("size = %d", f.Size())
	}
	// Content below the cut must survive.
	buf := make([]byte, 100)
	if _, err := f.ReadAt(ctx, buf, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestUnmountMountCleanRoundTrip(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fs.Mkdir(ctx, "/d")
	f, _ := fs.Create(ctx, "/d/file")
	f.WriteAt(ctx, []byte("persistent"), 0)
	f.Fallocate(ctx, 0, 4<<20)
	free0 := fs.StatFS(ctx).FreeBlocks
	aligned0 := fs.StatFS(ctx).FreeAligned2M
	if err := fs.Unmount(ctx); err != nil {
		t.Fatal(err)
	}

	fs2, err := winefs.Mount(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := fs2.StatFS(ctx)
	if st.FreeBlocks != free0 || st.FreeAligned2M != aligned0 {
		t.Fatalf("free state mismatch: %d/%d vs %d/%d",
			st.FreeBlocks, st.FreeAligned2M, free0, aligned0)
	}
	g, err := fs2.Open(ctx, "/d/file")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	g.ReadAt(ctx, buf, 0)
	if string(buf) != "persistent" {
		t.Fatalf("content after remount: %q", buf)
	}
}

func TestDirtyMountRebuildsState(t *testing.T) {
	// Simulate a crash (no unmount): mount must scan and rebuild free
	// lists exactly.
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	for i := 0; i < 50; i++ {
		f, _ := fs.Create(ctx, fmt.Sprintf("/f%d", i))
		f.WriteAt(ctx, make([]byte, 100<<10), 0)
	}
	fs.Unlink(ctx, "/f10")
	fs.Unlink(ctx, "/f20")
	free0 := fs.StatFS(ctx).FreeBlocks
	files0 := fs.StatFS(ctx).Files
	// No Unmount: superblock stays dirty.

	fs2, err := winefs.Mount(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.StatFS(ctx).Files; got != files0 {
		t.Fatalf("files after crash mount = %d, want %d", got, files0)
	}
	if got := fs2.StatFS(ctx).FreeBlocks; got != free0 {
		t.Fatalf("free blocks after rebuild = %d, want %d", got, free0)
	}
	// Everything still readable.
	f, err := fs2.Open(ctx, "/f30")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100<<10 {
		t.Fatalf("size = %d", f.Size())
	}
	if _, err := fs2.Open(ctx, "/f10"); err != vfs.ErrNotExist {
		t.Fatalf("deleted file resurrected: %v", err)
	}
}

func TestReactiveRewrite(t *testing.T) {
	fs, ctx := defaultFS(t)
	f, _ := fs.Create(ctx, "/frag")
	// Build a fragmented 4MiB file via many small writes (hole-backed).
	chunk := make([]byte, 64<<10)
	for off := int64(0); off < 4<<20; off += int64(len(chunk)) {
		if _, err := f.WriteAt(ctx, chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	// Force interleaving: create another small file between writes is
	// omitted; small writes already land in holes.
	if hugeAt(f, 0) {
		t.Skip("file happened to be aligned; fragmentation not reproduced")
	}
	if _, err := f.Mmap(ctx, 4<<20); err != nil {
		t.Fatal(err)
	}
	if fs.RewriteQueueLen() != 1 {
		t.Fatalf("rewrite queue = %d", fs.RewriteQueueLen())
	}
	bg := sim.NewCtx(99, 3)
	if n := fs.RunRewriter(bg); n != 1 {
		t.Fatalf("rewriter processed %d", n)
	}
	// After rewriting, the file must be hugepage-eligible everywhere.
	for chunkOff := int64(0); chunkOff < 4<<20; chunkOff += mmu.HugePage {
		if !hugeAt(f, chunkOff) {
			t.Fatalf("chunk %d still fragmented after rewrite", chunkOff)
		}
	}
}

func TestHolePromotionMaintainsAlignedPool(t *testing.T) {
	// Fill with small files, delete them all: the aligned pool must be
	// fully restored (holes merge back into aligned extents).
	fs, ctx := defaultFS(t)
	a0 := fs.StatFS(ctx).FreeAligned2M
	const n = 200
	for i := 0; i < n; i++ {
		f, _ := fs.Create(ctx, fmt.Sprintf("/s%d", i))
		f.WriteAt(ctx, make([]byte, 12<<10), 0)
	}
	for i := 0; i < n; i++ {
		if err := fs.Unlink(ctx, fmt.Sprintf("/s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Root dir blocks remain allocated; allow a small deficit.
	if got := fs.StatFS(ctx).FreeAligned2M; got < a0-2 {
		t.Fatalf("aligned pool after churn = %d, want ≥ %d", got, a0-2)
	}
}

func TestConcurrentCreatesScaleAcrossCPUs(t *testing.T) {
	fs, _ := newFS(t, 512<<20, winefs.Options{CPUs: 8})
	const threads = 8
	ctxs := sim.NewThreads(threads, 10, threads, 0)
	if err := sim.RunThreads(ctxs, func(th int, ctx *sim.Ctx) error {
		dir := fmt.Sprintf("/t%d", th)
		if err := fs.Mkdir(ctx, dir); err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			f, err := fs.Create(ctx, fmt.Sprintf("%s/f%d", dir, i))
			if err != nil {
				return err
			}
			if _, err := f.Append(ctx, make([]byte, 4096)); err != nil {
				return err
			}
			if err := f.Fsync(ctx); err != nil {
				return err
			}
			if err := fs.Unlink(ctx, fmt.Sprintf("%s/f%d", dir, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var maxNS int64
	for _, c := range ctxs {
		maxNS = max(maxNS, c.Now())
	}
	// Per-CPU journals: threads on distinct CPUs must not contend on
	// journal resources.
	for _, c := range ctxs {
		if c.Counters.LockWaitNS > maxNS/4 {
			t.Fatalf("thread waited %dns of %dns — unexpected contention",
				c.Counters.LockWaitNS, maxNS)
		}
	}
	ctx := sim.NewCtx(1, 0)
	ents, _ := fs.ReadDir(ctx, "/")
	if len(ents) != threads {
		t.Fatalf("dirs = %d", len(ents))
	}
}

func TestNUMAHomeNodePlacement(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.NewWithConfig(pmem.Config{Size: 256 << 20, Nodes: 2, CPUs: 8})
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 8, NUMAAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Thread on CPU 6 (node 1): its home should stick and allocations land
	// on one node.
	w := sim.NewCtx(42, 6)
	f, err := fs.Create(w, "/n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(w, make([]byte, 4<<20), 0); err != nil {
		t.Fatal(err)
	}
	home, ok := fs.HomeNode(42)
	if !ok {
		t.Fatal("no home node assigned")
	}
	for _, e := range f.Extents() {
		if dev.NodeOf(e.Phys) != home {
			t.Fatalf("extent at %d on node %d, home is %d", e.Phys, dev.NodeOf(e.Phys), home)
		}
	}
	// Child inherits the parent's home.
	fs.InheritHome(42, 43)
	if h, ok := fs.HomeNode(43); !ok || h != home {
		t.Fatalf("child home = %d, %v", h, ok)
	}
}

func TestDeepDirectoryTree(t *testing.T) {
	fs, ctx := defaultFS(t)
	path := ""
	for i := 0; i < 20; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := fs.Mkdir(ctx, path); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Create(ctx, path+"/leaf")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(ctx, []byte("deep"), 0)
	fi, err := fs.Stat(ctx, path+"/leaf")
	if err != nil || fi.Size != 4 {
		t.Fatalf("deep stat: %+v %v", fi, err)
	}
}

func TestNoSpace(t *testing.T) {
	fs, ctx := newFS(t, 32<<20, winefs.Options{CPUs: 1})
	f, _ := fs.Create(ctx, "/fill")
	before := fs.StatFS(ctx)
	err := f.Fallocate(ctx, 0, 64<<20)
	if err != vfs.ErrNoSpace {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// A failed allocation leaks nothing and attaches nothing.
	if st := fs.StatFS(ctx); st != before {
		t.Fatalf("StatFS after the failed fallocate = %+v, want %+v", st, before)
	}
	if n := len(f.Extents()); n != 0 || f.Size() != 0 {
		t.Fatalf("the failed fallocate left %d extents and size %d", n, f.Size())
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
	// All of it is still there to be had.
	if err := f.Fallocate(ctx, 0, before.FreeBlocks*winefs.BlockSize); err != nil {
		t.Fatalf("fallocate of exactly the free space: %v", err)
	}
}
