package winefs

import (
	"bytes"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// TestTierCrashRolledBackDemotionReclaimsSlowBlocks: a demotion that
// crashed before its commit leaves its slow-side copy orphaned; the
// mount-time pool rebuild must reclaim those blocks (the extent scan finds
// no owner) so they are allocatable again.
func TestTierCrashRolledBackDemotionReclaimsSlowBlocks(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	slow := tier.NewSlow(tier.DefaultSlowConfig(16 << 20))
	defer slow.Release()
	topts := &TierOptions{Slow: slow}
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, InodesPerCPU: 512, Tier: topts})
	if err != nil {
		t.Fatal(err)
	}
	data := patternBuf(1<<20, 0x77)
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	base := dev.Snapshot()
	fs.SetTierMarks(0.01, 0.005, 0)
	if _, err := fs.TierPass(ctx, TierPassOptions{}); err != nil {
		t.Fatal(err)
	}

	// Crash to the pre-migration image: the slow device keeps the copy the
	// migration wrote, but no extent record references it.
	dev.Restore(base)
	rctx := sim.NewCtx(2, 0)
	rfs, err := Mount(rctx, dev, Options{CPUs: 1, InodesPerCPU: 512, Tier: topts})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := rfs.TierStats()
	if st.SlowFreeBlocks != st.SlowTotalBlocks {
		t.Fatalf("orphaned slow blocks not reclaimed: %d of %d free",
			st.SlowFreeBlocks, st.SlowTotalBlocks)
	}
	if err := rfs.Audit(rctx); err != nil {
		t.Fatal(err)
	}
}

// TestTierCrashedPromotionKeepsItsData: a promotion frees the slow blocks
// it copied from before its commit lands, so every crash state of the
// pass short of the commit still maps /cold to them. Paired with the slow
// tier as the pass left it, as the crash harnesses pair them, each cut
// must mount and read /cold back whole: freeing a slow block must not
// take its bytes.
func TestTierCrashedPromotionKeepsItsData(t *testing.T) {
	fs, ctx, dev, slow := mkTiered(t, 64<<20, 64<<20)
	opts := Options{CPUs: 1, InodesPerCPU: 512, Tier: &TierOptions{Slow: slow}}
	const fileBytes = 4 << 20
	data := patternBuf(fileBytes, 0x3c)
	writeFile(t, ctx, fs, "/cold", data)
	ino := inoOf(t, ctx, fs, "/cold")
	demoteFile(t, ctx, fs, ino, fileBytes/BlockSize)
	if s, _ := slowBlocksOf(fs, ino); s != fileBytes/BlockSize {
		t.Fatalf("setup: %d of /cold's %d blocks on the slow tier", s, fileBytes/BlockSize)
	}
	f, err := fs.Open(ctx, "/cold")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fileBytes)
	for i := 0; i < 80; i++ {
		if _, err := f.ReadAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}

	fs.SetTierMarks(0.95, 0.85, 0)
	var st TierPassStats
	rec, err := dev.Record(func() (err error) {
		st, err = fs.TierPass(ctx, TierPassOptions{})
		return err
	})
	defer rec.Base.Release()
	if err != nil {
		t.Fatal(err)
	}
	if st.PromotedBlocks != fileBytes/BlockSize {
		t.Fatalf("the pass promoted %d blocks, want all %d of /cold's", st.PromotedBlocks, fileBytes/BlockSize)
	}

	for cut := 0; cut <= rec.Last()+1; cut++ {
		img := rec.Cut(cut)
		dev.Restore(img)
		img.Release()
		rctx := sim.NewCtx(2, 0)
		rfs, err := Mount(rctx, dev, opts)
		if err != nil {
			t.Fatalf("cut %d of %d: mount: %v", cut, rec.Last()+1, err)
		}
		rf, err := rfs.Open(rctx, "/cold")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := rf.ReadAt(rctx, buf, 0); err != nil {
			t.Fatalf("cut %d: read: %v", cut, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("cut %d of %d: /cold does not read back as written", cut, rec.Last()+1)
		}
		if err := rfs.Audit(rctx); err != nil {
			t.Fatalf("cut %d: audit: %v", cut, err)
		}
	}
}
