package winefs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestTxOverflowAbortsCleanly: an operation that logs more entries than
// the journal has slots cannot be one transaction, so it fails with the
// typed ErrTxOverflow — not a panic — while it is still only staged: nothing
// reaches the media, and DRAM, the allocator and Audit are where they were.
// Truncating to zero a file of 8,400 one-block extents rewrites half of its
// records (recRemove moves the last record into each vacated slot), over
// 4,200 DATA entries in a journal of 4,095 slots.
func TestTxOverflowAbortsCleanly(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(128 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	f := appended(t, ctx, fs, "/f", 8400)
	paths := []string{"/", "/f"}
	before := statesOf(t, ctx, fs, paths...)
	aborts := ctx.Counters.JournalAborts
	rec, err := dev.Record(func() error { return f.Truncate(ctx, 0) })
	if !errors.Is(err, ErrTxOverflow) {
		t.Fatalf("truncate = %v, want ErrTxOverflow", err)
	}
	if len(rec.Stores) != 0 {
		t.Errorf("the failed truncate stored %d times, first at %d", len(rec.Stores), rec.Stores[0].Off)
	}
	for i, p := range paths {
		if after := stateOf(t, ctx, fs, p); after != before[i] {
			t.Errorf("the failed call left a trace of %s in DRAM:\nbefore %+v\nafter  %+v", p, before[i], after)
		}
	}
	if err := fs.Audit(ctx); err != nil {
		t.Errorf("audit after the failed call: %v", err)
	}
	if ctx.Counters.JournalAborts != aborts+1 {
		t.Errorf("%d aborts counted, want 1", ctx.Counters.JournalAborts-aborts)
	}
	if tx, _, _ := fs.journals[0].scanJournal(); tx != nil {
		t.Fatal("journal not quiescent after the abort")
	}
	// The journal is free again: an operation that fits commits.
	if err := f.Truncate(ctx, 8399*BlockSize); err != nil {
		t.Fatalf("truncate by one block after the overflow: %v", err)
	}
}

// TestDegradedMountReadOnly: a mount that hits poisoned metadata must come
// up read-only with the reason recorded, keep serving what it could read,
// and refuse every mutation with ErrReadOnly.
func TestDegradedMountReadOnly(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(ctx, "/keep")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("persistent contents survive degradation!")
	if _, err := f.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	di, err := fs.Stat(ctx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	// Crash (no unmount) with /d's inode slot poisoned.
	dev.Poison(fs.g.inodeAddr(di.Ino), 1)

	rctx := sim.NewCtx(2, 0)
	rfs, err := Mount(rctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatalf("mount should degrade, not fail: %v", err)
	}
	reason, degraded := rfs.Degraded()
	if !degraded || reason == "" {
		t.Fatalf("Degraded() = %q, %v; want reason, true", reason, degraded)
	}
	// Survivors stay readable.
	kf, err := rfs.Open(rctx, "/keep")
	if err != nil {
		t.Fatalf("open survivor: %v", err)
	}
	buf := make([]byte, len(data))
	if _, err := kf.ReadAt(rctx, buf, 0); err != nil || string(buf) != string(data) {
		t.Fatalf("read survivor: %q, %v", buf, err)
	}
	// Every mutation path refuses with ErrReadOnly.
	if err := rfs.Mkdir(rctx, "/x"); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("mkdir: %v, want ErrReadOnly", err)
	}
	if _, err := rfs.Create(rctx, "/x"); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("create: %v, want ErrReadOnly", err)
	}
	if err := rfs.Unlink(rctx, "/keep"); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("unlink: %v, want ErrReadOnly", err)
	}
	if _, err := kf.Append(rctx, []byte("no")); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("append: %v, want ErrReadOnly", err)
	}
	if err := kf.Truncate(rctx, 0); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("truncate: %v, want ErrReadOnly", err)
	}
	// A degraded unmount must not mark the superblock clean.
	if err := rfs.Unmount(rctx); err == nil {
		t.Fatal("degraded unmount succeeded (would mark superblock clean)")
	}
}

// TestPoisonedDataReadsEIO: poisoned file data surfaces as EIO through the
// vfs read path — never as garbage bytes — while healthy ranges of the same
// file keep reading correctly.
func TestPoisonedDataReadsEIO(t *testing.T) {
	fs, ctx, dev := mk(t)
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := f.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat(ctx, "/f")
	ino := fs.getInode(fi.Ino)
	if len(ino.extents) == 0 {
		t.Fatal("no extents")
	}
	// Poison one cache line in the middle of the first block.
	dev.Poison(ino.extents[0].blk*BlockSize+256, 1)

	buf := make([]byte, 64)
	// A read over the poisoned line fails with EIO.
	if _, err := f.ReadAt(ctx, buf, 256); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("poisoned read: %v, want ErrIO", err)
	}
	// Reads before and after the line still return exact bytes.
	if _, err := f.ReadAt(ctx, buf, 0); err != nil || string(buf) != string(data[:64]) {
		t.Fatalf("head read: %q, %v", buf, err)
	}
	if _, err := f.ReadAt(ctx, buf, 4096); err != nil || string(buf) != string(data[4096:4160]) {
		t.Fatalf("tail read: %q, %v", buf, err)
	}
}

// TestWraparoundCrashRecovery is the journal wraparound satellite: an
// operation whose transaction commits in the very last reservable slots
// before the journal wraps, followed by a crash, must recover to exactly
// the same namespace as the identical operation in a fresh journal.
func TestWraparoundCrashRecovery(t *testing.T) {
	run := func(nearWrap bool) (string, int) {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(64 << 20)
		fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		j := fs.journals[0]
		entries := fs.g.journalEntries()
		if nearWrap {
			// Advance the journal with committed no-op transactions until
			// the next reservation only just fits: the create below commits
			// in the final slots before the wrap point.
			for j.tail+2*MaxTxEntries <= entries {
				tx := fs.beginTx(ctx, 0)
				touch(t, ctx, tx, fs.g.inodeAddr(1), 16)
				tx.commit(ctx)
			}
			if j.tail+MaxTxEntries > entries {
				t.Fatalf("overshot: tail=%d entries=%d", j.tail, entries)
			}
		}
		wrapBefore := j.wrap
		f, err := fs.Create(ctx, "/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(ctx, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if nearWrap && j.wrap == wrapBefore && j.tail+MaxTxEntries <= entries {
			t.Fatalf("create/append never reached the wrap region: tail=%d", j.tail)
		}
		// Crash: remount the raw image on a fresh device.
		scratch := dev.Snapshot()
		rctx := sim.NewCtx(2, 0)
		rfs, err := Mount(rctx, scratch, Options{CPUs: 1, InodesPerCPU: 512})
		if err != nil {
			t.Fatalf("recovery mount: %v", err)
		}
		if reason, degraded := rfs.Degraded(); degraded {
			t.Fatalf("recovery degraded: %s", reason)
		}
		if rep := Check(scratch); !rep.OK() {
			t.Fatalf("post-recovery fsck: %v", rep.Errors)
		}
		return vfs.State(rctx, rfs), int(j.wrap)
	}
	control, _ := run(false)
	wrapped, wrap := run(true)
	if wrap < 1 {
		t.Fatalf("wrap counter = %d", wrap)
	}
	if control != wrapped {
		t.Fatalf("wraparound recovery diverged:\nfresh: %q\n wrap: %q", control, wrapped)
	}
}

// TestWraparoundLargeOperation: an operation of more than a dozen entries
// that begins with fewer slots than that left before the journal's end
// wraps before it writes anything — the header first, then START at slot
// 1, nothing in the slots it skipped — and a crash at any fence of it
// recovers to the file as it was or as it was written, never a mix.
func TestWraparoundLargeOperation(t *testing.T) {
	for _, left := range []int64{1, 6, 10, 13} {
		t.Run(fmt.Sprintf("%d slots left", left), func(t *testing.T) {
			opts := Options{CPUs: 1, Mode: vfs.Strict}
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(32 << 20)
			fs, err := Mkfs(ctx, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			f := appended(t, ctx, fs, "/f", 26) // a strict write over it rewrites half the records
			j := fs.journals[0]
			entries := fs.g.journalEntries()
			j.tail = entries - left
			wrapBefore := j.wrap
			jlo, _ := JournalRegion(dev, 0)
			old := make([]byte, 26*BlockSize)
			written := bytes.Repeat([]byte{0x5a}, len(old))

			rec, err := dev.Record(func() error { _, err := f.WriteAt(ctx, written, 0); return err })
			if err != nil {
				t.Fatal(err)
			}
			slots := -1 // the header's
			for _, s := range rec.Stores {
				if s.Off < jlo || s.Off >= jlo+JournalBlocks*BlockSize {
					continue
				}
				slot := (s.Off - jlo) / EntrySize
				if slots < 0 && slot != 0 {
					t.Fatalf("the first journal store is at slot %d, not the header", slot)
				}
				if slot >= entries-left {
					t.Fatalf("a journal store at slot %d, past the wrap point %d", slot, entries-left)
				}
				slots += len(s.Data) / EntrySize
			}
			if slots < 1+12+1 {
				t.Fatalf("the write took %d journal slots; the fixture wants a dozen DATA entries", slots)
			}
			if j.wrap != wrapBefore+1 || j.tail != 1+int64(slots) {
				t.Fatalf("tail %d after %d slots, wrap %d: the write did not start at slot 1", j.tail, slots, j.wrap)
			}

			for cut := 0; cut <= rec.Last()+1; cut++ {
				dev.Restore(rec.Cut(cut))
				rctx := sim.NewCtx(2, 0)
				rfs, err := Mount(rctx, dev, opts)
				if err != nil {
					t.Fatalf("cut %d: mount: %v", cut, err)
				}
				if reason, degraded := rfs.Degraded(); degraded {
					t.Fatalf("cut %d: degraded: %s", cut, reason)
				}
				if rep := Check(dev); !rep.OK() {
					t.Fatalf("cut %d: fsck: %v", cut, rep.Errors)
				}
				if err := rfs.Audit(rctx); err != nil {
					t.Fatalf("cut %d: audit: %v", cut, err)
				}
				rf, err := rfs.Open(rctx, "/f")
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				got := make([]byte, len(old))
				if _, err := rf.ReadAt(rctx, got, 0); err != nil {
					t.Fatalf("cut %d: read: %v", cut, err)
				}
				switch {
				case cut == rec.Last()+1 && !bytes.Equal(got, written):
					t.Fatalf("every store durable, yet /f does not read as written")
				case !bytes.Equal(got, old) && !bytes.Equal(got, written):
					t.Fatalf("cut %d: /f is neither as it was nor as written", cut)
				}
			}
		})
	}
}

// TestRepairQuarantinesOrphan: a live inode whose only dirent is lost must
// be moved into /lost+found by Repair, not destroyed.
func TestRepairQuarantinesOrphan(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(ctx, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(ctx, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat(ctx, "/d/f")
	di, _ := fs.Stat(ctx, "/d")

	// Knock out the dirent for "f" on PM.
	dino := fs.getInode(di.Ino)
	found := false
	buf := make([]byte, DirentSize)
	for _, e := range dino.extents {
		for b := e.blk; b < e.blk+e.length && !found; b++ {
			for off := int64(0); off < BlockSize; off += DirentSize {
				dev.ReadAt(buf, b*BlockSize+off)
				cino, name, valid := decodeDirent(buf)
				if valid && cino == fi.Ino && name == "f" {
					dev.WriteAt([]byte{0}, b*BlockSize+off+8)
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Fatal("dirent for /d/f not found on device")
	}

	rep, err := Repair(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("repair not clean: %v", rep.PostErrors)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != fi.Ino {
		t.Fatalf("orphans = %v, want [%d]", rep.Orphans, fi.Ino)
	}

	mctx := sim.NewCtx(2, 0)
	mfs, err := Mount(mctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	if reason, degraded := mfs.Degraded(); degraded {
		t.Fatalf("post-repair degraded: %s", reason)
	}
	lost := fmt.Sprintf("/lost+found/lost+%d", fi.Ino)
	lfi, err := mfs.Stat(mctx, lost)
	if err != nil {
		t.Fatalf("quarantined file missing at %s: %v", lost, err)
	}
	if lfi.Size != 4096 {
		t.Fatalf("quarantined size = %d, want 4096", lfi.Size)
	}
	// Its data survived quarantine.
	lf, err := mfs.Open(mctx, lost)
	if err != nil {
		t.Fatal(err)
	}
	rbuf := make([]byte, 4096)
	if _, err := lf.ReadAt(mctx, rbuf, 0); err != nil {
		t.Fatalf("read quarantined data: %v", err)
	}
}

// TestRepairTruncatesBadExtents: a poisoned extent record costs the file
// its tail, never its head, and never the whole file system.
func TestRepairTruncatesBadExtents(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends to two files so each accumulates multiple extent
	// records.
	fa, _ := fs.Create(ctx, "/a")
	fb, _ := fs.Create(ctx, "/b")
	for i := 0; i < 6; i++ {
		if _, err := fa.Append(ctx, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if _, err := fb.Append(ctx, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	fi, _ := fs.Stat(ctx, "/a")
	ino := fs.getInode(fi.Ino)
	if len(ino.extents) < 5 {
		t.Skip("allocator merged extents; cannot build a multi-record file")
	}
	// Poison the cache line holding inline extent records 4..7. Poison is
	// 64-byte granular and extent records are 16 bytes, so records 0..3
	// (the first line) survive: the repaired file keeps its first 4 blocks.
	dev.Poison(fs.g.inodeAddr(fi.Ino)+inoOffExtents+4*extentSize, 1)

	rep, err := Repair(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("repair not clean: %v", rep.PostErrors)
	}
	if len(rep.ExtentsTruncated) != 1 || rep.ExtentsTruncated[0] != fi.Ino {
		t.Fatalf("truncated = %v, want [%d]", rep.ExtentsTruncated, fi.Ino)
	}

	mctx := sim.NewCtx(2, 0)
	mfs, err := Mount(mctx, dev, Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	afi, err := mfs.Stat(mctx, "/a")
	if err != nil {
		t.Fatalf("/a lost entirely: %v", err)
	}
	if afi.Size == 0 || afi.Size >= 6*4096 {
		t.Fatalf("size = %d, want head-only truncation in (0, 24576)", afi.Size)
	}
	// The surviving head is still readable, and /b is untouched.
	af, _ := mfs.Open(mctx, "/a")
	if _, err := af.ReadAt(mctx, make([]byte, afi.Size), 0); err != nil {
		t.Fatalf("read surviving head: %v", err)
	}
	bfi, err := mfs.Stat(mctx, "/b")
	if err != nil || bfi.Size != 6*4096 {
		t.Fatalf("/b damaged: size=%d err=%v", bfi.Size, err)
	}
}

// fileState is what a failed call must leave exactly as it found it: the
// inode's extent list (heat apart — DRAM-only), its record slots, its
// header fields, a directory's names and how many dirent slots it has free,
// and the allocator's free counts.
type fileState struct {
	exts, slots, hdr, names string
	size, free, aligned     int64
	freeSlots               int
}

func stateOf(t *testing.T, ctx *sim.Ctx, fs *FS, path string) fileState {
	t.Helper()
	ino, err := fs.resolve(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	var exts []string
	var slots []int
	for _, e := range ino.extents {
		exts = append(exts, fmt.Sprintf("%d:%d+%d", e.fileBlk, e.blk, e.length))
		slots = append(slots, e.slot)
	}
	st := fs.StatFS(ctx)
	fst := fileState{exts: strings.Join(exts, " "), slots: fmt.Sprint(slots),
		hdr:  fmt.Sprintf("typ=%d flags=%#x nlink=%d indirect=%v", ino.typ, ino.flags, ino.nlink, ino.indirect),
		size: ino.size, free: st.FreeBlocks, aligned: st.FreeAligned2M}
	if ino.dir != nil {
		var names []string
		ino.dir.tree.Ascend(func(name string, de dentry) bool {
			names = append(names, fmt.Sprintf("%s=%d", name, de.ino))
			return true
		})
		fst.names, fst.freeSlots = strings.Join(names, " "), len(ino.dir.freeSlots)
	}
	return fst
}

// statesOf is stateOf for several paths.
func statesOf(t *testing.T, ctx *sim.Ctx, fs *FS, paths ...string) []fileState {
	t.Helper()
	var out []fileState
	for _, p := range paths {
		out = append(out, stateOf(t, ctx, fs, p))
	}
	return out
}

// TestFailedWriteLeavesNoTrace: a write, fallocate, truncate, create, mkdir
// or rename that fails half-way aborts its journal transaction, and the DRAM
// image — the extent lists, the headers' fields, a directory's free dirent
// slots, the allocator — must go back with the media. Before the abort path
// restored it, the extents the call had already attached stayed in DRAM
// (and their blocks allocated) until the next mount, while the media had
// been rolled back: a leak, and a later in-place write into those blocks
// was acknowledged and then lost. Each case compares the file and the free
// counts before the failed call, after it, and after a mount of the same
// bytes, and audits DRAM against the media.
func TestFailedWriteLeavesNoTrace(t *testing.T) {
	opts := Options{CPUs: 1, Mode: vfs.Strict}
	// image is a 48MiB strict image with `files` 12KiB files, every other
	// one unlinked, and /victim: one block far enough out that a write from 0
	// past it spans two gaps, of which the free space covers only the first.
	// With no files the first gap is a few large extents; with 200, the tail
	// of the gap is gathered from three-block holes, some twenty extents.
	// Either way the failed call is one journal transaction, and none of it
	// has reached the media when it fails.
	image := func(t *testing.T, files int) (fs *FS, ctx *sim.Ctx, dev *pmem.Device, victim vfs.File, gapBlks int64) {
		ctx = sim.NewCtx(1, 0)
		dev = pmem.New(48 << 20)
		fs, err := Mkfs(ctx, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			f, err := fs.Create(ctx, fmt.Sprintf("/f%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append(ctx, make([]byte, 12<<10)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < files; i += 2 {
			if err := fs.Unlink(ctx, fmt.Sprintf("/f%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		victim, err = fs.Create(ctx, "/victim")
		if err != nil {
			t.Fatal(err)
		}
		gapBlks = fs.StatFS(ctx).FreeBlocks * 2 / 3
		if _, err := victim.WriteAt(ctx, make([]byte, BlockSize), gapBlks*BlockSize); err != nil {
			t.Fatal(err)
		}
		return fs, ctx, dev, victim, gapBlks
	}
	// checkAll compares the three states of every path and audits the live
	// mount.
	checkAll := func(t *testing.T, ctx *sim.Ctx, fs *FS, dev *pmem.Device, before []fileState, paths ...string) {
		t.Helper()
		if err := fs.Audit(ctx); err != nil {
			t.Errorf("audit after the failed call: %v", err)
		}
		rfs, err := Mount(ctx, dev, opts) // not unmounted: recovery + scan of the same bytes
		if err != nil {
			t.Fatal(err)
		}
		if reason, deg := rfs.Degraded(); deg {
			t.Fatalf("remount degraded: %v", reason)
		}
		for i, path := range paths {
			if after := stateOf(t, ctx, fs, path); after != before[i] {
				t.Errorf("the failed call left a trace of %s in DRAM:\nbefore %+v\nafter  %+v", path, before[i], after)
			}
			if re := stateOf(t, ctx, rfs, path); re != before[i] {
				t.Errorf("the media disagrees with the state of %s before the failed call:\nbefore  %+v\nremount %+v", path, before[i], re)
			}
		}
	}
	check := func(t *testing.T, ctx *sim.Ctx, fs *FS, dev *pmem.Device, path string, before fileState) {
		t.Helper()
		checkAll(t, ctx, fs, dev, []fileState{before}, path)
	}

	for _, files := range []int{0, 200} {
		t.Run(fmt.Sprintf("write spanning two gaps, %d files", files), func(t *testing.T) {
			fs, ctx, dev, victim, gap := image(t, files)
			before := stateOf(t, ctx, fs, "/victim")
			// The first gap allocates and attaches; the second finds no space.
			if _, err := victim.WriteAt(ctx, make([]byte, 2*gap*BlockSize), 0); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("write = %v, want ErrNoSpace", err)
			}
			check(t, ctx, fs, dev, "/victim", before)
			// The file system is still writable, and the space is really back.
			if _, err := victim.WriteAt(ctx, make([]byte, gap*BlockSize), 0); err != nil {
				t.Fatalf("write of the first gap alone after the failure: %v", err)
			}
		})
		t.Run(fmt.Sprintf("fallocate spanning two gaps, %d files", files), func(t *testing.T) {
			fs, ctx, dev, victim, gap := image(t, files)
			before := stateOf(t, ctx, fs, "/victim")
			if err := victim.Fallocate(ctx, 0, 2*gap*BlockSize); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("fallocate = %v, want ErrNoSpace", err)
			}
			check(t, ctx, fs, dev, "/victim", before)
		})
	}

	// Truncate cannot run out of space; it fails when the media does. Every
	// checked read of the call is failed in turn (a transient fault, so the
	// remount can read the image). The journal reads the old bytes of a
	// transaction once per run of adjacent cache lines, so the fixture keeps
	// the records the call changes off the header's neighbour lines: /a has
	// twelve extents of two blocks, one inline record each, and the cut at
	// block 19 rewrites records 9 and 10 — the inode's fourth line — and the
	// header, on its first. Two runs, two reads.
	t.Run("truncate with a read fault", func(t *testing.T) {
		for nth := 1; ; nth++ {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(48 << 20)
			fs, err := Mkfs(ctx, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := fs.Create(ctx, "/a")
			b, _ := fs.Create(ctx, "/b")
			for i := 0; i < InlineExtents; i++ { // interleaved, so /a's extents cannot merge
				if _, err := a.Append(ctx, make([]byte, 8<<10)); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Append(ctx, make([]byte, 8<<10)); err != nil {
					t.Fatal(err)
				}
			}
			before := stateOf(t, ctx, fs, "/a")
			if n := len(a.Extents()); n != InlineExtents {
				t.Fatalf("/a has %d extents, want %d; the interleave did not fragment it", n, InlineExtents)
			}
			dev.SetReadFaults([]pmem.ReadRule{{Nth: nth, Transient: true}})
			err = a.Truncate(ctx, 19*BlockSize)
			dev.SetReadFaults(nil)
			if err == nil {
				if nth < 3 {
					t.Fatalf("truncate issued only %d checked reads; the sweep covers nothing", nth-1)
				}
				return // the call has fewer than nth checked reads: all covered
			}
			if !errors.Is(err, vfs.ErrIO) {
				t.Fatalf("read %d failed: truncate = %v, want ErrIO", nth, err)
			}
			t.Logf("read %d failed", nth)
			check(t, ctx, fs, dev, "/a", before)
		}
	})

	// The namespace rows. Until the transaction tracked the inodes of a
	// namespace operation its abort restored nothing: a create, mkdir or
	// rename that failed after the directory had grown a dirent block kept
	// the block's extent and its free slots in DRAM and never gave the block
	// back, and a rename whose victim's header could not be journaled left
	// the victim free in DRAM over a live one on the media.
	//
	// nsImage is /src and /sub (what the renames move), /d holding `entries`
	// files — a multiple of the 64 dirents of a block, so the next name grows
	// it — and, when full, a /fill that leaves one block free: the dirent
	// block, and none for the indirect block its thirteenth record needs.
	nsImage := func(t *testing.T, entries int, full bool) (*FS, *sim.Ctx, *pmem.Device) {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(48 << 20)
		fs, err := Mkfs(ctx, dev, Options{CPUs: 1, Mode: vfs.Strict, InodesPerCPU: 1024}) // the geometry is the image's: opts mounts it
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(fs.Mkdir(ctx, "/d"))
		must(fs.Mkdir(ctx, "/sub"))
		src, err := fs.Create(ctx, "/src")
		must(err)
		_, err = src.Append(ctx, bytes.Repeat([]byte{7}, 5000))
		must(err)
		for i := 0; i < entries; i++ {
			if i%64 == 0 { // the block between /d's last dirent block and its next: one record each
				_, err = src.Append(ctx, bytes.Repeat([]byte{7}, BlockSize))
				must(err)
			}
			_, err := fs.Create(ctx, fmt.Sprintf("/d/e%04d", i))
			must(err)
		}
		if d, _ := fs.resolve(ctx, "/d"); len(d.dir.freeSlots) != 0 || len(d.extents) != entries/64 {
			t.Fatalf("/d has %d free dirent slots and %d blocks; the next name would not grow it", len(d.dir.freeSlots), len(d.extents))
		}
		if full {
			fill, err := fs.Create(ctx, "/fill")
			must(err)
			for free := fs.StatFS(ctx).FreeBlocks; free > 1; free = fs.StatFS(ctx).FreeBlocks {
				// Halving: /fill's own indirect blocks come out of the same space.
				must(fill.Fallocate(ctx, fill.Size(), max(1, (free-1)/2)*BlockSize))
			}
		}
		return fs, ctx, dev
	}
	nsPaths := []string{"/", "/d", "/sub", "/src"}
	nsOps := []struct {
		name string
		run  func(ctx *sim.Ctx, fs *FS) error
	}{
		{"create", func(ctx *sim.Ctx, fs *FS) error { _, err := fs.Create(ctx, "/d/new"); return err }},
		{"mkdir", func(ctx *sim.Ctx, fs *FS) error { return fs.Mkdir(ctx, "/d/new") }},
		{"rename of a file", func(ctx *sim.Ctx, fs *FS) error { return fs.Rename(ctx, "/src", "/d/new") }},
		{"rename of a directory", func(ctx *sim.Ctx, fs *FS) error { return fs.Rename(ctx, "/sub", "/d/new") }},
	}
	for _, op := range nsOps {
		t.Run(op.name+" growing a directory, no block for the indirect block", func(t *testing.T) {
			fs, ctx, dev := nsImage(t, InlineExtents*64, true)
			before := statesOf(t, ctx, fs, nsPaths...)
			if err := op.run(ctx, fs); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("%s = %v, want ErrNoSpace", op.name, err)
			}
			checkAll(t, ctx, fs, dev, before, nsPaths...)
			// The one free block is free again: a smaller directory can grow.
			if _, err := fs.Create(ctx, "/sub/fits"); err != nil {
				t.Fatalf("create in another directory after the failure: %v", err)
			}
		})
		t.Run(op.name+" growing a directory, parent header unreadable", func(t *testing.T) {
			fs, ctx, dev := nsImage(t, 64, false)
			before := statesOf(t, ctx, fs, nsPaths...)
			d, _ := fs.resolve(ctx, "/d")
			hdr := fs.g.inodeAddr(d.ino)
			// The header's old bytes are read at finish, with the rest of
			// the transaction's: the directory has grown by then.
			dev.SetReadFaults([]pmem.ReadRule{{Start: hdr, End: hdr + 32, Transient: true}})
			err := op.run(ctx, fs)
			dev.SetReadFaults(nil)
			if !errors.Is(err, vfs.ErrIO) {
				t.Fatalf("%s = %v, want ErrIO", op.name, err)
			}
			checkAll(t, ctx, fs, dev, before, nsPaths...)
		})
	}
	t.Run("rename over a victim, victim header unreadable", func(t *testing.T) {
		fs, ctx, dev := nsImage(t, 64, false)
		paths := append([]string{"/d/e0007"}, nsPaths...)
		before := statesOf(t, ctx, fs, paths...)
		v, _ := fs.resolve(ctx, "/d/e0007")
		hdr := fs.g.inodeAddr(v.ino)
		dev.SetReadFaults([]pmem.ReadRule{{Start: hdr, End: hdr + 32, Transient: true}})
		err := fs.Rename(ctx, "/src", "/d/e0007")
		dev.SetReadFaults(nil)
		if !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("rename = %v, want ErrIO", err)
		}
		checkAll(t, ctx, fs, dev, before, paths...)
	})
}

// TestOnePassPoisonLeavesNoTrace: the journal reads a transaction's old
// bytes before it stores anything (txn.apply), so a poisoned line under
// any kind of metadata an operation rewrites — an inode header, an extent
// record, the pointer that links a new indirect block, a dirent, a dirent's
// valid byte — fails the operation with ErrIO and leaves DRAM, the media
// and the free count where they were.
func TestOnePassPoisonLeavesNoTrace(t *testing.T) {
	opts := Options{CPUs: 1, Mode: vfs.Strict}
	rows := []struct {
		name string
		// setup builds the image and returns the operation and the address
		// whose line it poisons.
		setup func(t *testing.T, ctx *sim.Ctx, fs *FS) (op func() error, poison int64)
	}{
		{"header", func(t *testing.T, ctx *sim.Ctx, fs *FS) (func() error, int64) {
			f := appended(t, ctx, fs, "/f", 1)
			return func() error { _, err := f.Append(ctx, make([]byte, BlockSize)); return err }, fs.g.inodeAddr(f.Ino())
		}},
		{"extent record", func(t *testing.T, ctx *sim.Ctx, fs *FS) (func() error, int64) {
			f := appended(t, ctx, fs, "/f", 1)
			return func() error { _, err := f.Append(ctx, make([]byte, BlockSize)); return err }, fs.g.inlineExtentAddr(f.Ino(), 0)
		}},
		{"chain pointer", func(t *testing.T, ctx *sim.Ctx, fs *FS) (func() error, int64) {
			// Every record slot of the inode and of its first indirect block
			// taken: the next record links a second indirect block.
			f := appended(t, ctx, fs, "/f", InlineExtents+extPerIndirect)
			ino := fs.getInode(f.Ino())
			if len(ino.extents) != InlineExtents+extPerIndirect || len(ino.indirect) != 1 {
				t.Fatalf("/f has %d extents and %d indirect blocks", len(ino.extents), len(ino.indirect))
			}
			return func() error { _, err := f.Append(ctx, make([]byte, BlockSize)); return err }, ino.indirect[0] * BlockSize
		}},
		{"dirent", func(t *testing.T, ctx *sim.Ctx, fs *FS) (func() error, int64) {
			appended(t, ctx, fs, "/f", 1)
			root := fs.getInode(1)
			return func() error { _, err := fs.Create(ctx, "/new"); return err }, root.dir.freeSlots[len(root.dir.freeSlots)-1]
		}},
		{"valid byte", func(t *testing.T, ctx *sim.Ctx, fs *FS) (func() error, int64) {
			appended(t, ctx, fs, "/f", 1)
			de, _ := fs.getInode(1).dir.tree.Get("f")
			return func() error { return fs.Unlink(ctx, "/f") }, de.addr + 8
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(48 << 20)
			fs, err := Mkfs(ctx, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			op, addr := row.setup(t, ctx, fs)
			paths := []string{"/", "/f"}
			before := statesOf(t, ctx, fs, paths...)
			media := dev.Snapshot()
			dev.Poison(addr, 1)
			err = op()
			dev.ClearPoison(addr, 1)
			if !errors.Is(err, vfs.ErrIO) {
				t.Fatalf("%s with the line at %d poisoned = %v, want ErrIO", row.name, addr, err)
			}
			for i, p := range paths {
				if after := stateOf(t, ctx, fs, p); after != before[i] {
					t.Errorf("the failed call left a trace of %s in DRAM:\nbefore %+v\nafter  %+v", p, before[i], after)
				}
			}
			media.Diffs(dev, func(off, _ int64) bool {
				t.Errorf("the failed call changed the media at %d", off)
				return false
			})
		})
	}
}

// appended creates path with n one-block extents (a second file's blocks
// between them, so none merge) and returns it.
func appended(t *testing.T, ctx *sim.Ctx, fs *FS, path string, n int) vfs.File {
	t.Helper()
	f, err := fs.Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	spacer, err := fs.Create(ctx, path+".spacer")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := f.Append(ctx, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		if _, err := spacer.Append(ctx, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}
