package winefs_test

import (
	"bytes"
	"testing"

	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// TestRewriteInvalidatesLiveMappings covers the page-table shootdown: an
// application holding an mmap across a reactive rewrite must keep reading
// its data (re-faulted against the new layout), never the freed old
// blocks.
func TestRewriteInvalidatesLiveMappings(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(512 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Build a fragmented 4MiB file with recognisable content.
	f, _ := fs.Create(ctx, "/frag")
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i / 4096)
	}
	for off := int64(0); off < int64(len(payload)); off += 64 << 10 {
		if _, err := f.WriteAt(ctx, payload[off:off+64<<10], off); err != nil {
			t.Fatal(err)
		}
	}
	if hugeAt(f, 0) {
		t.Skip("file happened to be aligned already")
	}

	// Map it and fault a few pages in (old translations).
	m, err := f.Mmap(ctx, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := m.Read(ctx, buf, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[1<<20:1<<20+4096]) {
		t.Fatal("pre-rewrite read wrong")
	}
	base0, _ := m.MappedPages()
	if base0 == 0 {
		t.Fatal("expected base-page mappings before rewrite")
	}

	// Rewrite in the background, then clobber the freed old blocks by
	// allocating and writing a filler file over them.
	bg := sim.NewCtx(2, 3)
	bg.AdvanceTo(ctx.Now())
	if n := fs.RunRewriter(bg); n != 1 {
		t.Fatalf("rewriter processed %d files", n)
	}
	filler, _ := fs.Create(ctx, "/filler")
	if _, err := filler.WriteAt(ctx, bytes.Repeat([]byte{0xFF}, 8<<20), 0); err != nil {
		t.Fatal(err)
	}

	// The same mapping must still read the original content, now through
	// hugepage translations on the new aligned layout.
	post := sim.NewCtx(3, 0)
	post.AdvanceTo(ctx.Now())
	for _, off := range []int64{0, 1 << 20, 3<<20 + 12345} {
		n := int64(len(buf))
		if err := m.Read(post, buf[:n], off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], payload[off:off+n]) {
			t.Fatalf("post-rewrite read at %d corrupted (stale translation?)", off)
		}
	}
	if post.Counters.HugeFaults == 0 {
		t.Fatal("post-rewrite faults should be hugepage faults")
	}
}

// TestRewriteSkipsDeletedFiles: queue a file, delete it, run the rewriter.
func TestRewriteSkipsDeletedFiles(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	f, _ := fs.Create(ctx, "/doomed")
	for off := int64(0); off < 4<<20; off += 32 << 10 {
		f.WriteAt(ctx, make([]byte, 32<<10), off)
	}
	if _, err := f.Mmap(ctx, 4<<20); err != nil {
		t.Fatal(err)
	}
	queued := fs.RewriteQueueLen()
	if err := fs.Unlink(ctx, "/doomed"); err != nil {
		t.Fatal(err)
	}
	bg := sim.NewCtx(2, 1)
	if n := fs.RunRewriter(bg); n != 0 && queued > 0 {
		t.Fatalf("rewriter rewrote a deleted file (%d)", n)
	}
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

// TestRewriteQueueDedup: mapping the same fragmented file repeatedly
// must enqueue it once — the guard stays set from enqueue until the
// rewrite completes.
func TestRewriteQueueDedup(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	f, _ := fs.Create(ctx, "/dup")
	for off := int64(0); off < 4<<20; off += 32 << 10 {
		f.WriteAt(ctx, make([]byte, 32<<10), off)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Mmap(ctx, 4<<20); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.RewriteQueueLen(); n != 1 {
		t.Fatalf("queue holds %d entries after 3 mmaps of one file, want 1", n)
	}
	bg := sim.NewCtx(2, 1)
	if n := fs.RunRewriter(bg); n != 1 {
		t.Fatalf("rewriter processed %d files, want 1", n)
	}
}

// TestRewriteQueueInodeReuse: a file queued for rewriting is unlinked
// and its inode number recycled by a brand-new small file. The rewriter
// must recognise the queued object is dead — rewriting by number would
// churn (or corrupt) the unrelated new file.
func TestRewriteQueueInodeReuse(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	f, _ := fs.Create(ctx, "/old")
	for off := int64(0); off < 4<<20; off += 32 << 10 {
		f.WriteAt(ctx, make([]byte, 32<<10), off)
	}
	if _, err := f.Mmap(ctx, 4<<20); err != nil {
		t.Fatal(err)
	}
	if fs.RewriteQueueLen() != 1 {
		t.Skip("file happened to be aligned; nothing queued")
	}
	if err := fs.Unlink(ctx, "/old"); err != nil {
		t.Fatal(err)
	}
	// The per-CPU inode free list is LIFO: the very next create on this
	// CPU reuses the freed number.
	nf, err := fs.Create(ctx, "/new")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	if _, err := nf.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	bg := sim.NewCtx(2, 1)
	if n := fs.RunRewriter(bg); n != 0 {
		t.Fatalf("rewriter rewrote %d files; the queued inode was recycled", n)
	}
	got := make([]byte, len(payload))
	if _, err := nf.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("recycled-inode file corrupted by stale rewrite entry")
	}
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

// fragmented builds a file of the given size whose every chunk is many
// small extents: it and a decoy take turns appending 64KiB, so neither
// gets a longer run and the holes a rewrite leaves behind never merge
// into an aligned extent.
func fragmented(t *testing.T, ctx *sim.Ctx, fs *winefs.FS, path string, size int) (vfs.File, []byte) {
	t.Helper()
	f, err := fs.Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	decoy, err := fs.Create(ctx, path+".decoy")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i/4096 + i)
	}
	for off := 0; off < size; off += 64 << 10 {
		if _, err := f.Append(ctx, payload[off:off+64<<10]); err != nil {
			t.Fatal(err)
		}
		if _, err := decoy.Append(ctx, payload[:64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	return f, payload
}

// hugeAt reports whether the file system would map the 2MiB chunk at
// chunkOff with a hugepage.
func hugeAt(f vfs.File, chunkOff int64) bool {
	return f.(vfs.HugeProber).ProbeHuge(chunkOff, nil)
}

func eligibleChunks(f vfs.File, chunks int) int {
	n := 0
	for c := 0; c < chunks; c++ {
		if hugeAt(f, int64(c)*mmu.HugePage) {
			n++
		}
	}
	return n
}

// TestRewriteCopiesNonTemporallyAndFencesEachCopy is the rewrite path's
// charge table: every piece the rewriter relocates is a non-temporal copy
// (no clwb per data line) fenced before the one journal transaction that
// swaps it in. The flush has no counter of its own, so it is weighed on
// the clock: the same rewrite is run under two flush latencies, and with
// clwb at 8ns a flush of n lines costs n+7, so the clocks differ by the
// lines flushed — only metadata's, a small fraction of the data's. The
// fence and the transaction are read off the store trace.
func TestRewriteCopiesNonTemporallyAndFencesEachCopy(t *testing.T) {
	const chunks = 3
	run := func(flushLat int64) (elapsed int64, pieces int, commits int64) {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(256 << 20)
		dev.Model().FlushLat = flushLat
		fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		// One block of padding shifts the file off the hugepage grid: it
		// comes out physically contiguous and misaligned, a handful of
		// copies per chunk and almost no metadata beside them.
		pad, _ := fs.Create(ctx, "/pad")
		if _, err := pad.WriteAt(ctx, make([]byte, winefs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(ctx, "/shifted")
		for off := int64(0); off < chunks*mmu.HugePage; off += 64 << 10 {
			if _, err := f.WriteAt(ctx, make([]byte, 64<<10), off); err != nil {
				t.Fatal(err)
			}
		}
		if n := eligibleChunks(f, chunks); n != 0 {
			t.Fatalf("setup: %d chunks already hugepage-eligible", n)
		}
		if _, err := f.Mmap(ctx, 0); err != nil {
			t.Fatal(err)
		}
		bg := sim.NewCtx(2, 1)
		bg.AdvanceTo(ctx.Now())
		start := bg.Now()
		var n int
		rec, _ := dev.Record(func() error { n = fs.RunRewriter(bg); return nil })
		if n != 1 {
			t.Fatalf("rewriter rewrote %d files, want 1", n)
		}
		if n := eligibleChunks(f, chunks); n != chunks {
			t.Fatalf("%d of %d chunks eligible after the rewrite", n, chunks)
		}
		// The destinations are where the file lives now.
		inDst := func(off int64) bool {
			for _, e := range f.Extents() {
				if off >= e.Phys && off < e.Phys+e.Len {
					return true
				}
			}
			return false
		}
		copying, copyEpoch := false, 0
		for _, s := range rec.Stores {
			if inDst(s.Off) {
				copying, copyEpoch = true, s.Epoch
				continue
			}
			if copying {
				// First metadata store after a copy: the swap has begun.
				pieces++
				copying = false
				if s.Epoch <= copyEpoch {
					t.Fatalf("piece %d: no fence between the copy and its swap (both in epoch %d)", pieces, s.Epoch)
				}
			}
		}
		return bg.Now() - start, pieces, bg.Counters.JournalCommits
	}
	base, pieces, commits := run(0)
	withFlush, _, _ := run(8)
	if pieces < chunks {
		t.Fatalf("%d copies for %d chunks", pieces, chunks)
	}
	if commits != int64(pieces) {
		t.Fatalf("%d journal commits for %d copies: each swap must be exactly one transaction", commits, pieces)
	}
	dataLines := int64(chunks * mmu.HugePage / pmem.CacheLine)
	flushed := withFlush - base
	if flushed >= dataLines/20 {
		t.Fatalf("rewrite flushed %d lines' worth of clwb for %d lines of copied data (want only metadata flushed)",
			flushed, dataLines)
	}
}

// TestRewriteQueuePartialProgress: with one aligned extent free, a
// three-chunk rewrite fixes one chunk, keeps it, and requeues without
// counting as a rewrite; once space appears the next drain finishes the
// file and counts it once.
func TestRewriteQueuePartialProgress(t *testing.T) {
	const chunks = 3
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, payload := fragmented(t, ctx, fs, "/frag", chunks*mmu.HugePage)
	pin, _ := fs.Create(ctx, "/pin")
	if err := pin.Fallocate(ctx, 0, (fs.StatFS(ctx).FreeAligned2M-1)*mmu.HugePage); err != nil {
		t.Fatal(err)
	}
	if n := fs.StatFS(ctx).FreeAligned2M; n != 1 {
		t.Fatalf("setup: %d aligned extents free, want 1", n)
	}
	if _, err := f.Mmap(ctx, 0); err != nil {
		t.Fatal(err)
	}

	bg := sim.NewCtx(2, 0)
	bg.AdvanceTo(ctx.Now())
	if n := fs.RunRewriter(bg); n != 0 || bg.Counters.Rewrites != 0 {
		t.Fatalf("half-done rewrite counted: returned %d, Rewrites=%d", n, bg.Counters.Rewrites)
	}
	if n := eligibleChunks(f, chunks); n != 1 {
		t.Fatalf("%d chunks eligible after the starved drain, want the 1 it had space for", n)
	}
	if n := fs.RewriteQueueLen(); n != 1 {
		t.Fatalf("queue holds %d entries after the starved drain, want the file requeued", n)
	}

	if err := fs.Unlink(ctx, "/pin"); err != nil {
		t.Fatal(err)
	}
	if n := fs.RunRewriter(bg); n != 1 || bg.Counters.Rewrites != 1 {
		t.Fatalf("finished rewrite: returned %d, Rewrites=%d, want 1 and 1", n, bg.Counters.Rewrites)
	}
	if n := eligibleChunks(f, chunks); n != chunks {
		t.Fatalf("%d of %d chunks eligible after the second drain", n, chunks)
	}
	if n := fs.RewriteQueueLen(); n != 0 {
		t.Fatalf("queue holds %d entries after the rewrite completed", n)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content changed across the two-step rewrite")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteQueueDropsAlreadyAligned: a queued file whose layout was
// fixed by other means before the rewriter reached it is dropped without
// copying a byte, is not a rewrite, and can be queued again later.
func TestRewriteQueueDropsAlreadyAligned(t *testing.T) {
	const size = 2 * mmu.HugePage
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fragmented(t, ctx, fs, "/f", size)
	if _, err := f.Mmap(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if fs.RewriteQueueLen() != 1 {
		t.Fatal("setup: fragmented file not queued")
	}
	// Reallocate the file in one piece: it lands on aligned extents.
	if err := f.Truncate(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		t.Fatal(err)
	}
	if n := eligibleChunks(f, 2); n != 2 {
		t.Fatalf("setup: %d of 2 chunks eligible after reallocation", n)
	}

	bg := sim.NewCtx(2, 0)
	bg.AdvanceTo(ctx.Now())
	if n := fs.RunRewriter(bg); n != 0 || bg.Counters.Rewrites != 0 {
		t.Fatalf("aligned file counted as a rewrite: returned %d, Rewrites=%d", n, bg.Counters.Rewrites)
	}
	if c := bg.Counters; c.PMReadBytes != 0 || c.PMWriteBytes != 0 || c.JournalCommits != 0 {
		t.Fatalf("dropping an aligned file touched PM: read %d, wrote %d, %d commits",
			c.PMReadBytes, c.PMWriteBytes, c.JournalCommits)
	}
	if n := fs.RewriteQueueLen(); n != 0 {
		t.Fatalf("queue holds %d entries, want the aligned file dropped", n)
	}
	// The in-flight guard went with it: fragment the file again and a new
	// mmap queues it again.
	if err := f.Truncate(ctx, 0); err != nil {
		t.Fatal(err)
	}
	other, _ := fs.Create(ctx, "/other")
	for off := 0; off < size; off += 64 << 10 {
		if _, err := f.Append(ctx, make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Append(ctx, make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Mmap(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if n := fs.RewriteQueueLen(); n != 1 {
		t.Fatalf("re-fragmented file not queued again (queue %d): the guard outlived the drop", n)
	}
}
