package winefs_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

// fragmentFS builds the classic aged layout: pairs of 1MiB files split
// every hugepage chunk, then the even-numbered files are deleted so each
// chunk is half live, half free — no free chunk is aligned, but half the
// space is free. Returns the surviving files and their patterns.
func fragmentFS(t *testing.T, ctx *sim.Ctx, fs *winefs.FS, n int) map[string]byte {
	t.Helper()
	buf := make([]byte, 1<<20)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/f%d", i)
		f, err := fs.Create(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	live := make(map[string]byte)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/f%d", i)
		if i%2 == 0 {
			if err := fs.Unlink(ctx, name); err != nil {
				t.Fatal(err)
			}
		} else {
			live[name] = byte(i + 1)
		}
	}
	return live
}

func checkLive(t *testing.T, ctx *sim.Ctx, fs *winefs.FS, live map[string]byte) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for name, pat := range live {
		f, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if _, err := f.ReadAt(ctx, buf, 0); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for j, b := range buf {
			if b != pat {
				t.Fatalf("%s byte %d = %#x, want %#x (defrag corrupted a migrated file)", name, j, b, pat)
			}
		}
	}
}

// TestDefragRecoversAlignedExtents is the tentpole's core property: a
// pass over the half-free aged layout migrates the live halves together
// and re-forms 2MiB aligned extents, with the §3.6 audit invariants
// holding immediately afterwards and every migrated byte intact.
func TestDefragRecoversAlignedExtents(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	live := fragmentFS(t, ctx, fs, 12)
	before := fs.StatFS(ctx)

	bg := sim.NewCtx(2, 1)
	bg.AdvanceTo(ctx.Now())
	st, err := fs.DefragPass(bg, winefs.DefragOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered2M < 2 {
		t.Fatalf("Recovered2M = %d, want >= 2 (scanned %d, migrated %d, busy %d, meta %d)",
			st.Recovered2M, st.ChunksScanned, st.MigratedBlocks, st.SkippedBusy, st.SkippedMeta)
	}
	if st.MigratedBlocks == 0 {
		t.Fatal("pass recovered chunks without migrating anything")
	}
	after := fs.StatFS(ctx)
	if after.FreeAligned2M <= before.FreeAligned2M {
		t.Fatalf("FreeAligned2M %d -> %d, want growth", before.FreeAligned2M, after.FreeAligned2M)
	}
	if after.FreeBlocks != before.FreeBlocks {
		t.Fatalf("defrag changed total free space: %d -> %d", before.FreeBlocks, after.FreeBlocks)
	}
	// Satellite: the audit invariants hold immediately after the pass —
	// no hold left behind, nothing in both pools, tiling exact.
	if err := fs.Audit(bg); err != nil {
		t.Fatalf("audit after defrag pass: %v", err)
	}
	if bg.Counters.DefragRecovered2M != st.Recovered2M {
		t.Fatalf("counter DefragRecovered2M=%d, stats say %d", bg.Counters.DefragRecovered2M, st.Recovered2M)
	}
	checkLive(t, ctx, fs, live)
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("fsck after defrag: %v", rep.Errors)
	}
}

// TestDefragMigrationBudget: a pass stops migrating once it has moved
// defragMaxMigrateBlocks (8192) live blocks, finishing only the chunk it
// is in. The image holds more than that to move inside the pass's
// 128-chunk window, so the budget, not MaxChunks, is what ends the pass.
func TestDefragMigrationBudget(t *testing.T) {
	const budget = 8192 // defragMaxMigrateBlocks
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(1<<30), winefs.Options{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 512 KiB files, four to a 2 MiB chunk. The first 32 chunks keep three
	// files each (384 live blocks apiece), the next 64 keep two (256
	// apiece): 20,480 blocks of holes, and 28,672 live blocks a pass could
	// move out of them.
	buf := make([]byte, 512<<10)
	for i := 0; i < 384; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 384; i++ {
		if i%4 == 0 || i >= 128 && i%4 == 1 {
			if err := fs.Unlink(ctx, fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	bg := sim.NewCtx(2, 0)
	st, err := fs.DefragPass(bg, winefs.DefragOptions{MaxChunks: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st.MigratedBlocks < budget || st.MigratedBlocks >= budget+winefs.BlocksPerHuge {
		t.Fatalf("MigratedBlocks = %d, want the budget %d plus less than one chunk", st.MigratedBlocks, budget)
	}
	if st.ChunksScanned >= 128 {
		t.Fatalf("the pass scanned all %d chunks of its window: the budget never stopped it", st.ChunksScanned)
	}
	if err := fs.Audit(bg); err != nil {
		t.Fatalf("audit after budget-limited pass: %v", err)
	}
}

// TestDefragPacerInjectsIdle: a throttled pass must give back idle
// virtual time between migration bursts (§4's interference bound).
func TestDefragPacerInjectsIdle(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	fragmentFS(t, ctx, fs, 8)
	bg := sim.NewCtx(2, 1)
	pacer := sim.NewPacer(0.1)
	if _, err := fs.DefragPass(bg, winefs.DefragOptions{Pacer: pacer}); err != nil {
		t.Fatal(err)
	}
	if pacer.PausedNS == 0 || bg.Counters.DefragThrottleNS == 0 {
		t.Fatalf("throttled pass injected no idle time (paused=%d, counter=%d)",
			pacer.PausedNS, bg.Counters.DefragThrottleNS)
	}
	// At a 10% duty cycle the injected idle dwarfs the work time.
	if bg.Counters.DefragThrottleNS < bg.Counters.CopyNS {
		t.Fatalf("throttle %dns < copy %dns; duty cycle not enforced",
			bg.Counters.DefragThrottleNS, bg.Counters.CopyNS)
	}
}

// TestDefragSkipsMetaPinnedChunks: directory extents cannot be migrated
// (dirent PM addresses are position-dependent), so a chunk holding them
// is skipped, counted, and left exactly as found.
func TestDefragSkipsMetaPinnedChunks(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// /big takes half a chunk; the root directory's growth (300 entries)
	// lands its extent blocks in the other half. Deleting /big leaves a
	// half-free chunk pinned by directory metadata.
	big, err := fs.Create(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.WriteAt(ctx, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/e%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Close(ctx)
	}
	if err := fs.Unlink(ctx, "/big"); err != nil {
		t.Fatal(err)
	}
	bg := sim.NewCtx(2, 1)
	st, err := fs.DefragPass(bg, winefs.DefragOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedMeta == 0 {
		t.Fatalf("expected a metadata-pinned skip (scanned %d, recovered %d)",
			st.ChunksScanned, st.Recovered2M)
	}
	if err := fs.Audit(bg); err != nil {
		t.Fatalf("audit after meta skip: %v", err)
	}
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

// TestDefragRepromotesLiveMappings is the tentpole end-to-end: an aged,
// fragmented, live-mapped file is base-page mapped; one defrag pass
// re-forms aligned space, the queued rewrite lands the file on it, and
// the promotion notification upgrades the live mapping to hugepages
// without a single refault from the application.
func TestDefragRepromotesLiveMappings(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(512 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create(ctx, "/hot")
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

	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeReadOnly, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	if err := m.Touch(ctx, 0, int64(len(payload)), false); err != nil {
		t.Fatal(err)
	}
	hugeBefore, total := m.FaultedChunks()
	if total == 0 || hugeBefore == total {
		t.Skipf("mapping faulted %d/%d huge before defrag; nothing to promote", hugeBefore, total)
	}

	bg := sim.NewCtx(2, 3)
	bg.AdvanceTo(ctx.Now())
	st, err := fs.DefragPass(bg, winefs.DefragOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewrites == 0 {
		t.Fatalf("defrag pass drained no rewrites (queue len %d)", fs.RewriteQueueLen())
	}
	if bg.Counters.DefragRepromotions == 0 || bg.Counters.VMMPromotions == 0 {
		t.Fatalf("no promotion notifications (repromote=%d, vmm=%d)",
			bg.Counters.DefragRepromotions, bg.Counters.VMMPromotions)
	}
	hugeAfter, _ := m.FaultedChunks()
	if hugeAfter <= hugeBefore {
		t.Fatalf("huge chunk coverage %d -> %d after defrag; promotion did not land", hugeBefore, hugeAfter)
	}

	// The application's view: same mapping, same bytes, no new faults
	// beyond what promotion itself installed.
	post := sim.NewCtx(3, 0)
	post.AdvanceTo(bg.Now())
	buf := make([]byte, 4096)
	for _, off := range []int64{0, 1 << 20, 3<<20 + 12345} {
		if err := m.Read(post, buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+4096]) {
			t.Fatalf("post-defrag read at %d corrupted", off)
		}
	}
	if post.Counters.PageFaults+post.Counters.HugeFaults > 0 {
		t.Fatalf("reads after re-promotion refaulted (%d base, %d huge) — notification should have installed the translations",
			post.Counters.PageFaults, post.Counters.HugeFaults)
	}
}

// TestDefragRace8Threads races the defragmenter against foreground
// writers, truncates, unlink/create churn, and live mmap readers on 8
// OS threads (run under -race by `make defrag-race`). The properties:
// no stale reads through live mappings, no lost writes, and a clean
// audit + fsck once the dust settles.
func TestDefragRace8Threads(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(512 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Age the image first so the defragmenter has real work.
	live := fragmentFS(t, ctx, fs, 16)

	const iters = 60

	// 3 writers: rewrite their own file with a per-iteration pattern and
	// read it straight back.
	writer := func(w int, c *sim.Ctx) error {
		f, err := fs.Create(c, fmt.Sprintf("/w%d", w))
		if err != nil {
			return fmt.Errorf("writer %d create: %v", w, err)
		}
		buf := make([]byte, 256<<10)
		got := make([]byte, len(buf))
		for i := 0; i < iters; i++ {
			pat := byte(w*iters + i + 1)
			for j := range buf {
				buf[j] = pat
			}
			if _, err := f.WriteAt(c, buf, 0); err != nil {
				return fmt.Errorf("writer %d: %v", w, err)
			}
			if _, err := f.ReadAt(c, got, 0); err != nil {
				return fmt.Errorf("writer %d readback: %v", w, err)
			}
			if !bytes.Equal(got, buf) {
				return fmt.Errorf("writer %d iter %d: lost write", w, i)
			}
		}
		return nil
	}

	// 1 truncator: grow and shrink its file.
	truncator := func(c *sim.Ctx) error {
		f, err := fs.Create(c, "/trunc")
		if err != nil {
			return fmt.Errorf("trunc create: %v", err)
		}
		data := make([]byte, 1<<20)
		for i := 0; i < iters; i++ {
			if _, err := f.WriteAt(c, data, 0); err != nil {
				return fmt.Errorf("trunc write: %v", err)
			}
			if err := f.Truncate(c, int64(4096*(i%7))); err != nil {
				return fmt.Errorf("trunc: %v", err)
			}
		}
		return nil
	}

	// 1 churner: create/unlink cycles to recycle inode numbers under the
	// rewrite queue's nose.
	churner := func(c *sim.Ctx) error {
		data := make([]byte, 128<<10)
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("/churn%d", i%3)
			f, err := fs.Create(c, name)
			if err != nil {
				return fmt.Errorf("churn create: %v", err)
			}
			if _, err := f.WriteAt(c, data, 0); err != nil {
				return fmt.Errorf("churn write: %v", err)
			}
			if err := fs.Unlink(c, name); err != nil {
				return fmt.Errorf("churn unlink: %v", err)
			}
		}
		return nil
	}

	// 2 mmap readers: map a stable aged file and keep reading its
	// pattern while the defragmenter migrates and rewrites underneath.
	mapper := func(r int, c *sim.Ctx) error {
		name := fmt.Sprintf("/f%d", 2*r+1) // live files from fragmentFS
		pat := live[name]
		f, err := fs.Open(c, name)
		if err != nil {
			return fmt.Errorf("mapper %d open: %v", r, err)
		}
		m, err := f.Mmap(c, 1<<20)
		if err != nil {
			return fmt.Errorf("mapper %d mmap: %v", r, err)
		}
		buf := make([]byte, 4096)
		for i := 0; i < iters; i++ {
			off := int64((i * 37 % 256) * 4096)
			if err := m.Read(c, buf, off); err != nil {
				return fmt.Errorf("mapper %d read: %v", r, err)
			}
			for j, b := range buf {
				if b != pat {
					return fmt.Errorf("mapper %d iter %d byte %d: %#x want %#x (stale translation)", r, i, j, b, pat)
				}
			}
		}
		return nil
	}

	// 1 defragmenter: continuous throttled passes.
	defragmenter := func(c *sim.Ctx) error {
		pacer := sim.NewPacer(0.5)
		for i := 0; i < 10; i++ {
			if _, err := fs.DefragPass(c, winefs.DefragOptions{Pacer: pacer, MaxChunks: 8}); err != nil {
				return fmt.Errorf("defrag pass: %v", err)
			}
		}
		return nil
	}

	// Each on a CPU of its own: writers on 0-2, then the truncator, the
	// churner, the two mappers and the defragmenter.
	if err := sim.RunThreads(sim.NewThreads(8, 100, 8, 0), func(i int, c *sim.Ctx) error {
		switch {
		case i < 3:
			return writer(i, c)
		case i == 3:
			return truncator(c)
		case i == 4:
			return churner(c)
		case i < 7:
			return mapper(i-5, c)
		}
		return defragmenter(c)
	}); err != nil {
		t.Error(err)
	}

	quiet := sim.NewCtx(200, 0)
	if err := fs.Audit(quiet); err != nil {
		t.Fatalf("audit after race: %v", err)
	}
	checkLive(t, quiet, fs, live)
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("fsck after race: %v", rep.Errors)
	}
}

// TestDefragCountsChunksItFilledApart: on a quiescent image a candidate
// whose hold comes back empty was filled by the pass's own migrations, an
// earlier chunk's live blocks moved into its hole. That is compaction
// working, so it counts as Filled, never as SkippedBusy, which is kept
// for chunks another thread changed or a migration that failed.
func TestDefragCountsChunksItFilledApart(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(1<<30), winefs.Options{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512<<10)
	const files = 384
	for i := 0; i < files; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i += 4 {
		if err := fs.Unlink(ctx, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fs.DefragPass(ctx, winefs.DefragOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanned %d, recovered %d, filled %d, busy %d, meta %d",
		st.ChunksScanned, st.Recovered2M, st.Filled, st.SkippedBusy, st.SkippedMeta)
	if st.SkippedBusy != 0 || ctx.Counters.DefragSkippedBusy != 0 {
		t.Fatalf("a quiescent pass reported %d candidates busy (counter %d), want 0",
			st.SkippedBusy, ctx.Counters.DefragSkippedBusy)
	}
	if st.Filled == 0 || st.Recovered2M == 0 {
		t.Fatalf("Filled = %d, Recovered2M = %d: the pass should both fill chunks and re-form some", st.Filled, st.Recovered2M)
	}
	if got := st.Recovered2M + st.Filled + st.SkippedMeta; got != st.ChunksScanned {
		t.Fatalf("recovered %d + filled %d + meta %d = %d, want every one of %d candidates accounted for",
			st.Recovered2M, st.Filled, st.SkippedMeta, got, st.ChunksScanned)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
}
