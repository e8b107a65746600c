package winefs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// mkTiered builds a tiered FS: pmSize of PM plus slowSize of simulated SSD.
func mkTiered(t *testing.T, pmSize, slowSize int64) (*FS, *sim.Ctx, *pmem.Device, *tier.SlowDevice) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(pmSize)
	slow := tier.NewSlow(tier.DefaultSlowConfig(slowSize))
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512, Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Release() })
	return fs, ctx, dev, slow
}

func patternBuf(n int64, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(int(seed) + i*7)
	}
	return buf
}

// inoOf resolves a path to its DRAM inode (test helper).
func inoOf(t *testing.T, ctx *sim.Ctx, fs *FS, path string) *inode {
	t.Helper()
	fi, err := fs.Stat(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	return fs.getInode(fi.Ino)
}

// slowBlocksOf counts how many of the file's blocks live on the slow tier.
func slowBlocksOf(fs *FS, ino *inode) (slow, pm int64) {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	for _, e := range ino.extents {
		if fs.isSlow(e.blk) {
			slow += e.length
		} else {
			pm += e.length
		}
	}
	return
}

// TestTierSpillInsteadOfENOSPC is the PM-exhaustion satellite: filling PM
// past its high-water mark must transparently spill new data to the slow
// tier — never surface ErrNoSpace while the slow tier has headroom — and
// the spill must be visible in the alloc_spill counters.
func TestTierSpillInsteadOfENOSPC(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
	st, ok := fs.TierStats()
	if !ok {
		t.Fatal("TierStats on tiered mount returned !ok")
	}
	// Write 1.5x the PM data capacity across a handful of files.
	totalBlocks := st.PMTotalBlocks + st.SlowTotalBlocks/4
	chunk := patternBuf(1<<20, 3)
	var written int64
	for i := 0; written < totalBlocks*BlockSize; i++ {
		name := "/f" + string(rune('a'+i%8))
		var f vfs.File
		var err error
		if i < 8 {
			f, err = fs.Create(ctx, name)
		} else {
			f, err = fs.Open(ctx, name)
		}
		if err != nil {
			t.Fatalf("open %s after %d bytes: %v", name, written, err)
		}
		if _, err := f.Append(ctx, chunk); err != nil {
			t.Fatalf("append after %d of %d bytes: %v", written, totalBlocks*BlockSize, err)
		}
		written += int64(len(chunk))
	}
	if ctx.Counters.AllocSpillBlocks == 0 {
		t.Fatal("no spill happened despite writing past PM capacity")
	}
	if ctx.Counters.AllocSpillExtents == 0 {
		t.Fatal("spill blocks counted but no spill extents")
	}
	st, _ = fs.TierStats()
	if st.SlowFreeBlocks == st.SlowTotalBlocks {
		t.Fatal("slow tier still empty after spill")
	}
	// PM stayed at or under the high-water mark plus metadata growth: the
	// spill left headroom instead of running PM to zero.
	if st.PMFreeBlocks == 0 {
		t.Fatal("spill policy ran PM completely dry (no metadata headroom)")
	}
	// Spilled data reads back correctly, and cold reads are charged
	// slow-device costs.
	rctx := sim.NewCtx(2, 0)
	f, err := fs.Open(rctx, "/fa")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(chunk))
	if _, err := f.ReadAt(rctx, got, f.Size()-int64(len(chunk))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("spilled tail reads back wrong data")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after spill: %v", err)
	}
	// At least one of the files has a slow extent whose read was charged.
	var sawSlow bool
	for _, name := range []string{"/fa", "/fb", "/fc", "/fd", "/fe", "/ff", "/fg", "/fh"} {
		ino := inoOf(t, rctx, fs, name)
		if s, _ := slowBlocksOf(fs, ino); s > 0 {
			sawSlow = true
			break
		}
	}
	if !sawSlow {
		t.Fatal("spill counters nonzero but no file has slow extents")
	}
	cctx := sim.NewCtx(3, 0)
	for _, name := range []string{"/fa", "/fb", "/fc", "/fd"} {
		f, err := fs.Open(cctx, name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		for off := int64(0); off < f.Size(); off += int64(len(buf)) {
			if _, err := f.ReadAt(cctx, buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cctx.Counters.SlowReads == 0 || cctx.Counters.SlowReadBytes == 0 {
		t.Fatal("reads over spilled data were not charged slow-device costs")
	}
}

// TestTierENOSPCWhenBothTiersFull: ErrNoSpace is still the answer once BOTH
// tiers are exhausted.
func TestTierENOSPCWhenBothTiersFull(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 32<<20, 8<<20)
	chunk := patternBuf(1<<20, 9)
	f, err := fs.Create(ctx, "/fill")
	if err != nil {
		t.Fatal(err)
	}
	var sawNoSpace bool
	for i := 0; i < 64; i++ {
		if _, err := f.Append(ctx, chunk); err != nil {
			if !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("fill failed with %v, want ErrNoSpace", err)
			}
			sawNoSpace = true
			break
		}
	}
	if !sawNoSpace {
		t.Fatal("filled 64MiB into 32+8MiB without ENOSPC")
	}
	st, _ := fs.TierStats()
	if st.SlowFreeBlocks > st.SlowTotalBlocks/10 {
		t.Fatalf("ENOSPC with %d of %d slow blocks still free", st.SlowFreeBlocks, st.SlowTotalBlocks)
	}
}

// TestTierPassDemotesColdPromotesHot drives one full migration cycle: with
// PM over the high-water mark the coldest file moves down; once its data is
// re-read past the promotion threshold it moves back up. Content must
// survive both trips and the audit must stay clean throughout.
func TestTierPassDemotesColdPromotesHot(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
	const fileBytes = 4 << 20
	hotData := patternBuf(fileBytes, 0x10)
	coldData := patternBuf(fileBytes, 0x60)
	hot, err := fs.Create(ctx, "/hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hot.WriteAt(ctx, hotData, 0); err != nil {
		t.Fatal(err)
	}
	cold, err := fs.Create(ctx, "/cold")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.WriteAt(ctx, coldData, 0); err != nil {
		t.Fatal(err)
	}
	// Heat up /hot.
	buf := make([]byte, fileBytes)
	for i := 0; i < 5; i++ {
		if _, err := hot.ReadAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Force a demotion pass big enough for /cold only: coldest-first order
	// must pick /cold and leave /hot on PM.
	fs.SetTierMarks(0.01, 0.005, 0)
	st, err := fs.TierPass(ctx, TierPassOptions{MaxMigrateBlocks: fileBytes / BlockSize})
	if err != nil {
		t.Fatal(err)
	}
	if st.Demotions == 0 || st.DemotedBlocks != fileBytes/BlockSize {
		t.Fatalf("demotion pass: %+v, want %d blocks demoted", st, fileBytes/BlockSize)
	}
	coldIno := inoOf(t, ctx, fs, "/cold")
	hotIno := inoOf(t, ctx, fs, "/hot")
	if s, p := slowBlocksOf(fs, coldIno); s != fileBytes/BlockSize || p != 0 {
		t.Fatalf("/cold after demotion: slow=%d pm=%d, want all slow", s, p)
	}
	if s, _ := slowBlocksOf(fs, hotIno); s != 0 {
		t.Fatalf("/hot demoted (%d slow blocks) despite being hotter", s)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after demotion: %v", err)
	}
	if got := make([]byte, fileBytes); true {
		if _, err := cold.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, coldData) {
			t.Fatal("/cold content wrong after demotion")
		}
	}

	// Re-reading /cold past the promotion threshold earns it back to PM.
	// The bar is size-proportional (one touch per 16 blocks), so a 4MiB
	// file needs a real re-read streak, not a token one.
	fs.SetTierMarks(0.95, 0.85, 0)
	for i := 0; i < 80; i++ {
		if _, err := cold.ReadAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err = fs.TierPass(ctx, TierPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Promotions == 0 || st.PromotedBlocks != fileBytes/BlockSize {
		t.Fatalf("promotion pass: %+v, want %d blocks promoted", st, fileBytes/BlockSize)
	}
	if s, p := slowBlocksOf(fs, coldIno); s != 0 || p != fileBytes/BlockSize {
		t.Fatalf("/cold after promotion: slow=%d pm=%d, want all PM", s, p)
	}
	got := make([]byte, fileBytes)
	if _, err := cold.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, coldData) {
		t.Fatal("/cold content wrong after promotion")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after promotion: %v", err)
	}
	if ctx.Counters.TierDemotions == 0 || ctx.Counters.TierPromotions == 0 || ctx.Counters.TierPasses < 2 {
		t.Fatalf("tier counters not maintained: demote=%d promote=%d passes=%d",
			ctx.Counters.TierDemotions, ctx.Counters.TierPromotions, ctx.Counters.TierPasses)
	}
}

// TestTierRemountRebuildsSlowPool: the slow pool is DRAM-only, so both the
// clean-unmount path and the crash path must rebuild it from the extent
// scan — without double-allocating blocks that are already referenced.
func TestTierRemountRebuildsSlowPool(t *testing.T) {
	fs, ctx, dev, slow := mkTiered(t, 64<<20, 32<<20)
	data := patternBuf(2<<20, 0x21)
	f, err := fs.Create(ctx, "/spilled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	// Demote everything so /spilled definitely has slow extents.
	fs.SetTierMarks(0.01, 0.005, 0)
	if _, err := fs.TierPass(ctx, TierPassOptions{}); err != nil {
		t.Fatal(err)
	}
	ino := inoOf(t, ctx, fs, "/spilled")
	slowUsed, _ := slowBlocksOf(fs, ino)
	if slowUsed == 0 {
		t.Fatal("setup: no slow extents to rebuild")
	}

	check := func(tag string, rfs *FS, rctx *sim.Ctx) {
		st, ok := rfs.TierStats()
		if !ok {
			t.Fatalf("%s: remount lost the tier", tag)
		}
		if st.SlowTotalBlocks-st.SlowFreeBlocks != slowUsed {
			t.Fatalf("%s: pool shows %d slow blocks used, want %d",
				tag, st.SlowTotalBlocks-st.SlowFreeBlocks, slowUsed)
		}
		rf, err := rfs.Open(rctx, "/spilled")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := rf.ReadAt(rctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: content wrong after remount", tag)
		}
		if err := rfs.Audit(rctx); err != nil {
			t.Fatalf("%s: audit: %v", tag, err)
		}
		// New writes must not land on the supposedly-used slow blocks: fill
		// some more and re-audit (the audit's overlap scan would catch it).
		g, err := rfs.Create(rctx, "/more-"+tag)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Append(rctx, data); err != nil {
			t.Fatal(err)
		}
		if _, err := rfs.TierPass(rctx, TierPassOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := rfs.Audit(rctx); err != nil {
			t.Fatalf("%s: audit after new writes: %v", tag, err)
		}
	}

	// Crash path first (snapshot the dirty image before the clean unmount).
	scratch := dev.Snapshot()
	cctx := sim.NewCtx(2, 0)
	cfs, err := Mount(cctx, scratch, Options{Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatalf("crash-path mount: %v", err)
	}
	cfs.SetTierMarks(0.01, 0.005, 0)
	check("crash", cfs, cctx)

	// Clean path.
	if err := fs.Unmount(ctx); err != nil {
		t.Fatal(err)
	}
	rctx := sim.NewCtx(3, 0)
	rfs, err := Mount(rctx, dev, Options{Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatalf("clean-path mount: %v", err)
	}
	rfs.SetTierMarks(0.01, 0.005, 0)
	check("clean", rfs, rctx)
}

// TestTierUntieredUnchanged: a pure-PM mount must not notice the tier code
// at all — no counters, no stats, identical behaviour.
func TestTierUntieredUnchanged(t *testing.T) {
	fs, ctx, _ := mk(t)
	if _, ok := fs.TierStats(); ok {
		t.Fatal("untired mount reports tier stats")
	}
	if fs.Tiered() {
		t.Fatal("untired mount claims to be tiered")
	}
	st, err := fs.TierPass(ctx, TierPassOptions{})
	if err != nil || st.Demotions != 0 || st.Promotions != 0 {
		t.Fatalf("TierPass on untiered mount: %+v, %v", st, err)
	}
	f, err := fs.Create(ctx, "/plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(ctx, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.SlowReads != 0 || ctx.Counters.AllocSpillBlocks != 0 || ctx.Counters.TierPasses != 0 {
		t.Fatalf("untiered mount touched tier counters: %+v", ctx.Counters)
	}
}

// lockWaitAt reads the first block of f on a fresh foreground context whose
// clock stands at virtual instant `at`, and returns how long the read
// waited for locks.
func lockWaitAt(t *testing.T, f vfs.File, at int64) int64 {
	t.Helper()
	fg := sim.NewCtx(99, 0)
	fg.AdvanceTo(at)
	if _, err := f.ReadAt(fg, make([]byte, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	return fg.Counters.LockWaitNS
}

// TestTierThrottleNeverHoldsTheLock pins the movers' locking rule
// (moverHold): the pacer's sleep falls after the inode lock is released,
// so a foreground reader arriving mid-move waits out the copy, not the
// throttle. One goroutine, two contexts, like the benchmark's interleaving:
// the paced pass runs to completion on the maintenance clock, then a
// foreground clock placed inside the pass reads the moved file. At budget
// 0.1 a sleep under the lock makes that wait ten times the work.
func TestTierThrottleNeverHoldsTheLock(t *testing.T) {
	// paced runs pass on a maintenance context starting at ctx's instant and
	// returns that instant and the virtual time the pass worked (its span less
	// the injected idle).
	paced := func(t *testing.T, ctx *sim.Ctx, pass func(mctx *sim.Ctx, pacer *sim.Pacer)) (t0, work int64) {
		mctx := sim.NewCtx(2, 0)
		mctx.AdvanceTo(ctx.Now())
		pacer := sim.NewPacer(0.1)
		t0 = mctx.Now()
		pass(mctx, pacer)
		paused := pacer.PausedNS
		work = mctx.Now() - t0 - paused
		if work <= 0 || paused < work*89/10 || paused > work*9 {
			t.Fatalf("pass worked %d vns and slept %d: a budget of 0.1 owes 9x the work", work, paused)
		}
		return t0, work
	}

	t.Run("tier pass", func(t *testing.T) {
		fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
		writeFile(t, ctx, fs, "/x", patternBuf(2<<20, 0x17))
		f, err := fs.Open(ctx, "/x")
		if err != nil {
			t.Fatal(err)
		}
		fs.SetTierMarks(0.001, 0.0005, 0)
		// Two holds of relocateChunkBlocks each, a sleep after either.
		var st TierPassStats
		t0, work := paced(t, ctx, func(mctx *sim.Ctx, pacer *sim.Pacer) {
			if st, err = fs.TierPass(mctx, TierPassOptions{Pacer: pacer, MaxMigrateBlocks: 2 * relocateChunkBlocks}); err != nil {
				t.Fatal(err)
			}
		})
		if slow, _ := slowBlocksOf(fs, inoOf(t, ctx, fs, "/x")); st.DemotedBlocks != 2*relocateChunkBlocks || slow != st.DemotedBlocks {
			t.Fatalf("pass demoted %d blocks, %d of them /x's; want %d", st.DemotedBlocks, slow, 2*relocateChunkBlocks)
		}
		// Arriving as the first move starts: wait out that one relocate.
		oneMove := work * 6 / 10 // the two moves are the same size; leave slack
		if w := lockWaitAt(t, f, t0+1); w == 0 || w > oneMove {
			t.Fatalf("a read arriving inside the first move waited %d vns; one relocate of %d blocks is ~%d", w, relocateChunkBlocks, work/2)
		}
		// Arriving while the mover sleeps between its two holds: no wait.
		if w := lockWaitAt(t, f, t0+work); w != 0 {
			t.Fatalf("a read arriving while the mover slept waited %d vns for the lock", w)
		}
		if err := fs.Audit(ctx); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("defrag pass", func(t *testing.T) {
		fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
		// One half-live chunk, owned by /x alone: an aligned 2MiB file cut
		// back to 1MiB. /a leaves behind the hole space the move lands in.
		writeFile(t, ctx, fs, "/a", patternBuf(1<<20, 1))
		writeFile(t, ctx, fs, "/x", patternBuf(2<<20, 2))
		f, err := fs.Open(ctx, "/x")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(ctx, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(ctx, "/a"); err != nil {
			t.Fatal(err)
		}
		var st DefragStats
		t0, work := paced(t, ctx, func(mctx *sim.Ctx, pacer *sim.Pacer) {
			if st, err = fs.DefragPass(mctx, DefragOptions{Pacer: pacer}); err != nil {
				t.Fatal(err)
			}
		})
		if st.MigratedBlocks != (1<<20)/BlockSize || st.Recovered2M != 1 {
			t.Fatalf("pass migrated %d blocks and recovered %d chunks; want /x's %d blocks out of one chunk", st.MigratedBlocks, st.Recovered2M, (1<<20)/BlockSize)
		}
		// The whole pass is one hold of /x: a reader arriving as it starts
		// waits at most the pass's work.
		if w := lockWaitAt(t, f, t0+1); w == 0 || w > work {
			t.Fatalf("a read arriving inside the migration waited %d vns; the pass worked %d", w, work)
		}
		if err := fs.Audit(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTierPassPinsMappedFiles: what is mapped is not a demotion victim. A
// DAX mapping can only point at PM and its loads and stores never reach the
// heat counters, so a mapped file always looks coldest — and every block a
// pass took from it would be faulted straight back. With the water marks
// forced to the floor a pass must leave the mapped file's PM extents alone
// (and say how many it pinned), the mapping must keep its translations and
// its hugepages, and the file becomes an ordinary victim again the moment
// the last mapping closes.
func TestTierPassPinsMappedFiles(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
	const size = 4 << 20
	data := patternBuf(size, 0x2b)
	writeFile(t, ctx, fs, "/mapped", data)
	writeFile(t, ctx, fs, "/plain", patternBuf(size, 0x4d))
	f, err := fs.Open(ctx, "/mapped")
	if err != nil {
		t.Fatal(err)
	}
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := m.Read(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	mapped, plain := inoOf(t, ctx, fs, "/mapped"), inoOf(t, ctx, fs, "/plain")
	_, pmBefore := slowBlocksOf(fs, mapped)
	hugeBefore, totalBefore := m.FaultedChunks()
	if pmBefore != size/BlockSize || hugeBefore == 0 {
		t.Fatalf("setup: %d PM blocks, %d of %d chunks huge; want the file in PM on hugepages", pmBefore, hugeBefore, totalBefore)
	}

	fs.SetTierMarks(0.001, 0.0005, 0)
	st, err := fs.TierPass(ctx, TierPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if slow, pm := slowBlocksOf(fs, mapped); slow != 0 || pm != pmBefore {
		t.Fatalf("pass demoted %d blocks of a mapped file", slow)
	}
	if st.PinnedBlocks != pmBefore {
		t.Fatalf("PinnedBlocks = %d, want the mapped file's %d PM blocks", st.PinnedBlocks, pmBefore)
	}
	if slow, _ := slowBlocksOf(fs, plain); slow == 0 || st.DemotedBlocks != slow {
		t.Fatalf("pass demoted %d blocks, %d of them the unmapped file's; the pin must not stop the pass", st.DemotedBlocks, slow)
	}
	if huge, total := m.FaultedChunks(); huge != hugeBefore || total != totalBefore {
		t.Fatalf("faulted chunks %d/%d -> %d/%d across the pass", hugeBefore, totalBefore, huge, total)
	}
	// The translations survived: a full re-read takes no fault.
	rctx := sim.NewCtx(2, 0)
	rctx.AdvanceTo(ctx.Now())
	if err := m.Read(rctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mapped read returned wrong bytes after the pass")
	}
	if n := rctx.Counters.TotalFaults() + rctx.Counters.SoftFaults + rctx.Counters.TierFaultPromotions; n != 0 {
		t.Fatalf("re-read through the mapping took %d faults", n)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit with the file pinned: %v", err)
	}

	// Unmapped, it is a victim like any other.
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = fs.TierPass(ctx, TierPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// (All of it but the few blocks the low-water mark lets PM keep.)
	if slow, pm := slowBlocksOf(fs, mapped); pm > 16 || st.PinnedBlocks != 0 || st.DemotedBlocks != slow {
		t.Fatalf("after Close: %d blocks still in PM, %d pinned, %d demoted; want the file demoted", pm, st.PinnedBlocks, st.DemotedBlocks)
	}
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file content wrong after demotion")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after demotion: %v", err)
	}
}

// TestHeatFollowsData: heat and references belong to the data, not to
// the extent record that happens to describe it. A relocation (either
// direction) and a strict copy-on-write both re-describe a range with new
// records; a split leaves a tail with a record of its own; a merge folds
// two records into one. None of them may make a hot range look
// never-touched, a range read back look dead, or data written once and
// never read look read back — or the next pass demotes exactly the data the
// foreground is working on and keeps what nobody reads.
func TestHeatFollowsData(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	slow := tier.NewSlow(tier.DefaultSlowConfig(64 << 20))
	t.Cleanup(func() { slow.Release() })
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512, Mode: vfs.Strict, Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 256
	data := patternBuf(blocks*BlockSize, 0x3c)
	writeFile(t, ctx, fs, "/hot", data)
	writeFile(t, ctx, fs, "/cold", patternBuf(blocks*BlockSize, 0x77)) // written once, never touched again
	f, err := fs.Open(ctx, "/hot")
	if err != nil {
		t.Fatal(err)
	}
	ino := inoOf(t, ctx, fs, "/hot")
	if len(ino.extents) != 1 || ino.extents[0].length != blocks {
		t.Fatalf("setup: /hot is %+v, want one %d-block extent", ino.extents, blocks)
	}
	blk := make([]byte, BlockSize)
	for i := 0; i < 40; i++ {
		if _, err := f.ReadAt(ctx, blk, int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	// least is the coldest heat and the fewest references over the extents
	// covering /hot; every layout change below must leave both at or above
	// what the source extent had.
	least := func() usage {
		ino.mu.RLock()
		defer ino.mu.RUnlock()
		var covered int64
		u := ino.extents[0].usage
		for _, e := range ino.extents {
			covered += e.length
			u = usage{heat: min(u.heat, e.heat), refs: min(u.refs, e.refs)}
		}
		if covered != blocks {
			t.Fatalf("/hot covers %d blocks, want %d", covered, blocks)
		}
		return u
	}
	source := least()
	if source.heat < 40 || source.refs != tierRefsMax {
		t.Fatalf("setup: 40 reads left %+v; want heat >= 40 and refs saturated at %d", source, tierRefsMax)
	}
	keeps := func(step string) {
		t.Helper()
		if u := least(); u.heat < source.heat || u.refs < source.refs {
			t.Fatalf("after %s: %+v; every piece must carry heat >= %d and refs %d", step, ino.extents, source.heat, source.refs)
		}
	}
	coldIno := inoOf(t, ctx, fs, "/cold")
	staysDead := func(step string) {
		t.Helper()
		coldIno.mu.RLock()
		defer coldIno.mu.RUnlock()
		for _, e := range coldIno.extents {
			if e.refs != 0 {
				t.Fatalf("after %s: /cold is %+v; data written once and never read has no references", step, coldIno.extents)
			}
		}
	}
	staysDead("the write that created /cold")

	// A relocation out of the middle (a demotion) splits the extent in
	// three: head, moved run, tail.
	const lo, n = 100, 40
	if moved := fs.migrateRun(ctx, ino, lo, n, true, nil, &moveScratch{}); moved != n {
		t.Fatalf("demoted %d blocks, want %d", moved, n)
	}
	if len(ino.extents) != 3 {
		t.Fatalf("after the demotion: %+v, want three pieces", ino.extents)
	}
	keeps("the demotion")

	// A strict overwrite of one block of the moved run is a copy-on-write
	// (the run is too short to be worth journaling in place): the new block
	// inherits the run's heat and references, and the write itself is a
	// touch, as an in-place write is.
	const cowBlk = lo + n/2
	if e := ino.extents[ino.extentAt(cowBlk)]; e.length >= dataJournalMinBlocks {
		t.Fatalf("setup: block %d sits in a %d-block extent, which is journaled in place, not copied", cowBlk, e.length)
	}
	cows := ctx.Counters.CoWCopies
	fresh := patternBuf(BlockSize, 0x91)
	copy(data[cowBlk*BlockSize:], fresh)
	if _, err := f.WriteAt(ctx, fresh, cowBlk*BlockSize); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.CoWCopies != cows+1 {
		t.Fatalf("the overwrite copied %d blocks, want 1", ctx.Counters.CoWCopies-cows)
	}
	keeps("the copy-on-write")
	if e := ino.extents[ino.extentAt(cowBlk)]; e.length != 1 || e.heat != source.heat+1 || e.refs != tierRefsMax {
		t.Fatalf("the copied block is %+v, want a 1-block extent of heat %d (inherited, plus the write) and refs %d", e, source.heat+1, tierRefsMax)
	}

	// The promotion back, of what the copy left on the slow tier.
	for _, r := range [][2]int64{{lo, cowBlk - lo}, {cowBlk + 1, lo + n - cowBlk - 1}} {
		if moved := fs.migrateRun(ctx, ino, r[0], r[1], false, nil, &moveScratch{}); moved != r[1] {
			t.Fatalf("promoted %d blocks at %d, want %d", moved, r[0], r[1])
		}
	}
	keeps("the promotion")
	if slowHot, _ := slowBlocksOf(fs, ino); slowHot != 0 {
		t.Fatalf("setup: %d blocks of /hot still on the slow tier", slowHot)
	}

	// A merge: a record attached next to its physical neighbour folds into
	// it (recAppend), as sequential appends do. Here the head gives up its
	// last block and takes it back as a record of its own, with no usage:
	// the folded record must be the head again, as hot and as referenced.
	ino.mu.Lock()
	head := ino.extents[0]
	tx := fs.begin(ctx, ino)
	if err := fs.recUpdate(ctx, tx, ino, 0, wextent{fileBlk: head.fileBlk, blk: head.blk, length: head.length - 1, usage: head.usage}); err != nil {
		t.Fatal(err)
	}
	err = fs.recAppend(ctx, tx, ino, wextent{fileBlk: head.fileBlk + head.length - 1, blk: head.blk + head.length - 1, length: 1})
	ino.mu.Unlock()
	if err = tx.finish("test", err); err != nil {
		t.Fatal(err)
	}
	if e := ino.extents[0]; e != head {
		t.Fatalf("after the merge the head is %+v, want %+v back whole", e, head)
	}
	keeps("the merge")

	// The policy sees it the same way: a pass that must shed one file's
	// worth of blocks takes the file nobody touched, and no piece of /hot.
	fs.SetTierMarks(0.001, 0.0005, 0)
	st, err := fs.TierPass(ctx, TierPassOptions{MaxMigrateBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if slowHot, _ := slowBlocksOf(fs, ino); slowHot != 0 {
		t.Fatalf("pass demoted %d blocks of the hot file (%+v)", slowHot, ino.extents)
	}
	if slowCold, _ := slowBlocksOf(fs, coldIno); slowCold != blocks || st.DemotedBlocks != blocks {
		t.Fatalf("pass demoted %d blocks, %d of /cold; want all %d of /cold", st.DemotedBlocks, slowCold, blocks)
	}
	// Moved by the tier pass, and piece by piece by hand, data written once
	// is still data nobody has read back.
	staysDead("the demotion of /cold")
	for fileLo := int64(0); fileLo < blocks; fileLo += relocateChunkBlocks / 2 {
		if moved := fs.migrateRun(ctx, coldIno, fileLo, relocateChunkBlocks/2, false, nil, &moveScratch{}); moved != relocateChunkBlocks/2 {
			t.Fatalf("promoted %d blocks of /cold at %d, want %d", moved, fileLo, relocateChunkBlocks/2)
		}
	}
	staysDead("the promotion of /cold")
	got := make([]byte, len(data))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("/hot content wrong after the layout changes")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
}

// demoteFile moves every block of ino to the slow tier, run by run.
func demoteFile(t *testing.T, ctx *sim.Ctx, fs *FS, ino *inode, blocks int64) {
	t.Helper()
	for lo := int64(0); lo < blocks; {
		n := fs.migrateRun(ctx, ino, lo, blocks-lo, true, nil, &moveScratch{})
		if n == 0 {
			t.Fatalf("demotion stalled at block %d of %d", lo, blocks)
		}
		lo += n
	}
}

// TestTierDeadBeforeTrickle: data read once makes room for data read
// again. PM holds files written once and never read; the slow tier holds a
// file read at one touch per 64 blocks a pass — a quarter of the density
// bar, so heat alone never promotes it, and halving takes the PM files and
// it to the same heat. References tell them apart: within a few passes the
// read file is on PM, never-read files took its place on the slow tier,
// and no block of the read file went down to make room.
func TestTierDeadBeforeTrickle(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
	const trickle = 1024
	data := patternBuf(trickle*BlockSize, 0x5a)
	writeFile(t, ctx, fs, "/trickle", data)
	ino := inoOf(t, ctx, fs, "/trickle")
	demoteFile(t, ctx, fs, ino, trickle)
	f, err := fs.Open(ctx, "/trickle")
	if err != nil {
		t.Fatal(err)
	}
	// PM fills to between the water marks with files nobody reads: no
	// demotion is due and there is no headroom to promote into.
	var dead []*inode
	for used, total := fs.pmUsedBlocks(); used < int64(fs.tier.lowWater*float64(total)); used, total = fs.pmUsedBlocks() {
		name := "/dead" + string(rune('a'+len(dead)))
		writeFile(t, ctx, fs, name, patternBuf(1<<20, byte(len(dead))))
		dead = append(dead, inoOf(t, ctx, fs, name))
	}
	if used, total := fs.pmUsedBlocks(); used > int64(fs.tier.highWater*float64(total)) {
		t.Fatalf("setup: PM at %d of %d blocks, past the high-water mark", used, total)
	}

	buf := make([]byte, BlockSize)
	var demoted int64
	for pass := 0; pass < 12; pass++ {
		for b := int64(pass % 64); b < trickle; b += 64 {
			if _, err := f.ReadAt(ctx, buf, b*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		st, err := fs.TierPass(ctx, TierPassOptions{MaxMigrateBlocks: 256})
		if err != nil {
			t.Fatal(err)
		}
		demoted += st.DemotedBlocks
	}
	if s, _ := slowBlocksOf(fs, ino); s != 0 {
		t.Fatalf("%d of /trickle's %d blocks still on the slow tier after 12 passes", s, trickle)
	}
	var deadSlow int64
	for _, d := range dead {
		s, _ := slowBlocksOf(fs, d)
		deadSlow += s
	}
	if deadSlow < trickle || deadSlow != demoted {
		t.Fatalf("the passes demoted %d blocks, %d of them never-read files'; want at least %d, all of them never read", demoted, deadSlow, trickle)
	}
	// The swap is over: what is left on the slow tier nobody reads.
	if st, err := fs.TierPass(ctx, TierPassOptions{}); err != nil || st.PromotedBlocks+st.DemotedBlocks != 0 {
		t.Fatalf("a pass after the swap: %+v, %v; want nothing moved", st, err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("/trickle content wrong after the swap")
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTierTrickleDoesNotThrash: with no dead data left, a uniform trickle
// over both tiers moves nothing. Every file has been read back once; then
// each pass reads one block of the next file in turn, so each file is
// touched once every 60 passes — long enough for any heat that decays to
// zero to call the PM files dead between touches, and swap them with the
// slow file just touched, and back, forever. References never decay, so
// nothing read back is ever dead again.
func TestTierTrickleDoesNotThrash(t *testing.T) {
	fs, ctx, _, _ := mkTiered(t, 64<<20, 64<<20)
	// 60 files of 1MiB: PM takes them to the high-water mark, the rest
	// spill.
	var files []vfs.File
	var inos []*inode
	for i := 0; i < 60; i++ {
		name := "/t" + string(rune('A'+i))
		writeFile(t, ctx, fs, name, patternBuf(1<<20, byte(i)))
		f, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		files, inos = append(files, f), append(inos, inoOf(t, ctx, fs, name))
	}
	var slowFiles int
	for _, ino := range inos {
		if s, _ := slowBlocksOf(fs, ino); s > 0 {
			slowFiles++
		}
	}
	if slowFiles == 0 || slowFiles == len(inos) {
		t.Fatalf("setup: %d of %d files on the slow tier; the trickle must read both tiers", slowFiles, len(inos))
	}
	buf := make([]byte, BlockSize)
	for _, f := range files {
		if _, err := f.ReadAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Settle: PM sheds what sits above the high-water mark, once.
	for i := 0; i < 4; i++ {
		if _, err := fs.TierPass(ctx, TierPassOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var moved int64
	for pass := 0; pass < 240; pass++ {
		f := files[pass%len(files)]
		if _, err := f.ReadAt(ctx, buf, int64(pass/len(files))*BlockSize); err != nil {
			t.Fatal(err)
		}
		st, err := fs.TierPass(ctx, TierPassOptions{})
		if err != nil {
			t.Fatal(err)
		}
		moved += st.PromotedBlocks + st.DemotedBlocks
	}
	if moved != 0 {
		t.Fatalf("240 passes over a trickle with no dead data moved %d blocks", moved)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
}
