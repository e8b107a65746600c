package winefs

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// TestTierMigrationVsMmapRace is the `make maint-race` storm: threads
// hammer a live DAX mapping while a mover demotes the extents underneath
// and the readers' faults promote them back. TierPass pins mapped files, so
// the policy never produces this; the mechanism has to stay right anyway
// (a file can be mapped between a pass's scan and its move), and the mover
// here drives it directly through migrateRun. The invalidate-before-free
// ordering in replaceRange means every mapped access either resolves
// through a current PM translation (refaulting promotes demoted extents
// back up) or fails with the typed fault error — never reads freed or
// slow-tier memory. Run under -race it also checks the heat counters, the
// pass's candidate scan and the tier pool locking.
func TestTierMigrationVsMmapRace(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(128 << 20)
	slow := tier.NewSlow(tier.DefaultSlowConfig(64 << 20))
	defer slow.Release()
	fs, err := Mkfs(ctx, dev, Options{CPUs: 2, Mode: vfs.Strict, Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatal(err)
	}
	const size = 8 << 20
	data := patternBuf(size, 0x42)
	f, err := fs.Create(ctx, "/mapped")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	if err := m.Read(ctx, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}

	// Drive migration from one thread while others read the mapping: even
	// rounds demote half the mapped file, run by run, under the readers'
	// feet; odd rounds run the policy pass beside their fault promotions.
	ino := inoOf(t, ctx, fs, "/mapped")
	var demoted int64 // the mover's tally
	var moverDone atomic.Bool
	// Thread 0 is the mover, the six after it the readers.
	ctxs := append([]*sim.Ctx{sim.NewCtx(50, 1)}, sim.NewThreads(6, 100, 2, 0)...)
	if err := sim.RunThreads(ctxs, func(i int, tctx *sim.Ctx) error {
		if i == 0 {
			defer moverDone.Store(true)
			for i := 0; i < 12; i++ {
				if i%2 == 1 {
					if _, err := fs.TierPass(tctx, TierPassOptions{MaxMigrateBlocks: 1024}); err != nil {
						return fmt.Errorf("tier pass %d: %v", i, err)
					}
					continue
				}
				const half = size / 2 / BlockSize
				lo := int64(i/2%2) * half
				for blk := lo; blk < lo+half; {
					n := fs.migrateRun(tctx, ino, blk, lo+half-blk, true, nil)
					demoted += n
					blk += max(n, 1) // 0: this block is on the slow tier already
				}
			}
			return nil
		}
		th := i - 1
		rng := sim.NewRand(uint64(th)*524287 + 1)
		buf := make([]byte, 256)
		// At least 300 reads, and until the mover is through: readers the
		// host schedules ahead of the first demotion would otherwise be
		// done before there is anything to fault back up (one run in
		// twenty on two cores), and the storm races nothing.
		for i := 0; i < 300 || !moverDone.Load(); i++ {
			off := rng.Int63n(size - int64(len(buf)))
			err := m.Read(tctx, buf, off)
			if err != nil {
				if errors.Is(err, vfs.ErrMapFault) || errors.Is(err, vfs.ErrNoSpace) {
					continue // invalidated mid-access or promotion raced an allocation; refault next round
				}
				return fmt.Errorf("thread %d op %d: %v", th, i, err)
			}
			// A successful mapped read must return current bytes, never
			// a freed block's recycled content.
			if want := data[off : off+int64(len(buf))]; !bytes.Equal(buf, want) {
				return fmt.Errorf("thread %d op %d: mapped read at %d returned stale bytes", th, i, off)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var faultPromotions int64 // the readers' sum
	for _, c := range ctxs[1:] {
		faultPromotions += c.Counters.TierFaultPromotions
	}
	if demoted == 0 || faultPromotions == 0 {
		t.Fatalf("storm demoted %d blocks and fault-promoted %d extents; the race would be vacuous", demoted, faultPromotions)
	}

	// End-state integrity, wherever the storm left each extent.
	rctx := sim.NewCtx(200, 0)
	got := make([]byte, size)
	if _, err := f.ReadAt(rctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file content corrupted by concurrent migration")
	}
	if err := fs.Audit(rctx); err != nil {
		t.Fatal(err)
	}
}
