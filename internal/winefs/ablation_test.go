package winefs_test

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// TestAblationAlignment removes the aligned-extent pool and verifies the
// design claim it isolates: without alignment awareness, an aged WineFS
// loses its aligned free space like any other file system, and a large
// file can no longer be mapped with hugepages.
func TestAblationAlignment(t *testing.T) {
	frac := map[bool]float64{}
	huge := map[bool]int64{}
	for _, ablate := range []bool{false, true} {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(512 << 20)
		fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4, AblateAlignment: ablate})
		if err != nil {
			t.Fatal(err)
		}
		ager := geriatrix.New(fs, geriatrix.Config{TargetUtil: 0.7, ChurnFactor: 1, Seed: 5})
		if _, err := ager.Run(ctx); err != nil {
			t.Fatal(err)
		}
		frac[ablate] = alloc.AlignedFreeFraction(fs.FreeExtents())

		f, err := fs.Create(ctx, "/probe")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Fallocate(ctx, 0, 8<<20); err != nil {
			t.Fatal(err)
		}
		m, err := f.Mmap(ctx, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		bench := sim.NewCtx(2, 0)
		bench.AdvanceTo(ctx.Now())
		if err := m.Touch(bench, 0, 8<<20, true); err != nil {
			t.Fatal(err)
		}
		huge[ablate] = bench.Counters.HugeFaults
	}
	if frac[true] > frac[false]/2 {
		t.Errorf("ablated allocator should fragment: with=%.2f without=%.2f", frac[false], frac[true])
	}
	if huge[false] == 0 {
		t.Error("full WineFS should map the probe with hugepages")
	}
	if huge[true] != 0 {
		t.Errorf("ablated WineFS got %d hugepage faults — alignment should be gone", huge[true])
	}
}

// TestAblationSingleJournal pins every transaction to one journal and
// verifies the §3.4 concurrency claim: metadata throughput stops scaling.
func TestAblationSingleJournal(t *testing.T) {
	perIter := map[bool]int64{}
	for _, ablate := range []bool{false, true} {
		dev := pmem.New(512 << 20)
		setup := sim.NewCtx(1, 0)
		fs, err := winefs.Mkfs(setup, dev, winefs.Options{CPUs: 8, AblateSingleJournal: ablate})
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 8; th++ {
			if err := fs.Mkdir(setup, fmt.Sprintf("/d%d", th)); err != nil {
				t.Fatal(err)
			}
		}
		end := setup.Now()
		ctxs := sim.NewThreads(8, 10, 8, end)
		if err := sim.RunThreads(ctxs, func(th int, ctx *sim.Ctx) error {
			for i := 0; i < 100; i++ {
				path := fmt.Sprintf("/d%d/f%d", th, i)
				f, err := fs.Create(ctx, path)
				if err != nil {
					return err
				}
				f.Append(ctx, make([]byte, 4096))
				fs.Unlink(ctx, path)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var maxNS int64
		for _, ctx := range ctxs {
			maxNS = max(maxNS, ctx.Now()-end)
		}
		perIter[ablate] = maxNS / 100
	}
	// The single journal serialises all 8 threads' transactions: expect a
	// clear slowdown versus per-CPU journals.
	if perIter[true] < perIter[false]*2 {
		t.Errorf("single journal not a bottleneck: per-CPU=%dns single=%dns",
			perIter[false], perIter[true])
	}
}

// TestAblationCorrectness: both ablated variants must still be correct
// file systems (content integrity and crash recovery intact).
func TestAblationCorrectness(t *testing.T) {
	for _, opts := range []winefs.Options{
		{CPUs: 2, AblateAlignment: true},
		{CPUs: 2, AblateSingleJournal: true},
	} {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(128 << 20)
		fs, err := winefs.Mkfs(ctx, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(ctx, "/x")
		data := []byte("ablation does not break correctness")
		f.WriteAt(ctx, data, 0)
		// Crash (no unmount) and remount.
		rctx := sim.NewCtx(2, 0)
		rfs, err := winefs.Mount(rctx, dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := rfs.Open(rctx, "/x")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data))
		g.ReadAt(rctx, buf, 0)
		if string(buf) != string(data) {
			t.Fatalf("content lost: %q", buf)
		}
		if rep := winefs.Check(dev); !rep.OK() {
			t.Fatalf("fsck: %v", rep.Errors)
		}
	}
}
