package winefs

import (
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
