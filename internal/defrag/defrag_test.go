package defrag_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/defrag"
	"repro/internal/metrics"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/winefs"
)

func agedFS(t *testing.T) (*sim.Ctx, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for i := 0; i < 12; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i += 2 {
		if err := fs.Unlink(ctx, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return ctx, fs
}

// TestRunnerConverges: Run loops passes until the image is clean, the
// counter snapshot feeds the metrics registry, and a second Run finds
// nothing left to do.
func TestRunnerConverges(t *testing.T) {
	ctx, fs := agedFS(t)
	r := defrag.New(fs, defrag.Config{Budget: 0.2})
	bg := sim.NewCtx(2, 1)
	bg.AdvanceTo(ctx.Now())
	sum, err := r.Run(bg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recovered2M == 0 {
		t.Fatalf("runner recovered nothing: %+v", sum)
	}
	if r.Counters().DefragThrottleNS == 0 {
		t.Fatal("budget 0.2 injected no throttle time")
	}
	if err := fs.Audit(bg); err != nil {
		t.Fatalf("audit after runner: %v", err)
	}

	c := r.Counters()
	if c.DefragPasses == 0 || c.DefragRecovered2M != sum.Recovered2M {
		t.Fatalf("counter snapshot out of sync: passes=%d recovered=%d want %d",
			c.DefragPasses, c.DefragRecovered2M, sum.Recovered2M)
	}
	fams := metrics.SubsystemFamilies("Online defragmenter", &c, "Defrag")
	if len(fams) == 0 {
		t.Fatal("no defrag_* metric families")
	}
	found := false
	for _, f := range fams {
		if f.Name == "defrag_recovered2m_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("defrag_recovered2m_total missing from families")
	}

	again, err := r.Run(sim.NewCtx(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Recovered2M != 0 || again.MigratedBlocks != 0 {
		t.Fatalf("second run still found work: %+v", again)
	}
}

// tieredFS builds a PM+SSD mount whose water marks sit near zero, so any
// tier pass finds cold extents to demote. aged additionally leaves every
// touched hugepage chunk half live and a mapped, fragmented file queued
// for rewriting: work for all three movers.
func tieredFS(t *testing.T, aged bool) (*sim.Ctx, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	slow := tier.NewSlow(tier.DefaultSlowConfig(128 << 20))
	t.Cleanup(slow.Release)
	fs, err := winefs.Mkfs(ctx, pmem.New(128<<20), winefs.Options{CPUs: 2, Tier: &winefs.TierOptions{Slow: slow}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if aged {
		// Two files taking turns appending: neither is hugepage-mappable.
		frag, _ := fs.Create(ctx, "/frag")
		decoy, _ := fs.Create(ctx, "/decoy")
		for off := 0; off < 4<<20; off += 64 << 10 {
			if _, err := frag.Append(ctx, buf[:64<<10]); err != nil {
				t.Fatal(err)
			}
			if _, err := decoy.Append(ctx, buf[:64<<10]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := frag.Mmap(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if fs.RewriteQueueLen() != 1 {
			t.Fatal("setup: fragmented mapped file not queued for rewriting")
		}
	}
	for i := 0; i < 12; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; aged && i < 12; i += 2 {
		if err := fs.Unlink(ctx, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetTierMarks(0.01, 0.005, 0)
	return ctx, fs
}

// TestRunnerStepsAllMoversOnOnePacer: on a tiered, aged mount one Step is
// a defrag pass, the rewrite drain and a tier pass, all throttled by the
// runner's one pacer — and the counter snapshot can be scraped from
// another goroutine while the runner keeps stepping.
func TestRunnerStepsAllMoversOnOnePacer(t *testing.T) {
	ctx, fs := tieredFS(t, true)
	r := defrag.New(fs, defrag.Config{Budget: 0.2})
	bg := sim.NewCtx(2, 1)
	bg.AdvanceTo(ctx.Now())
	if _, err := r.Step(bg); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.DefragPasses != 1 || c.DefragMigratedBlocks == 0 {
		t.Errorf("defrag: %d passes, %d blocks migrated, want 1 pass and work done", c.DefragPasses, c.DefragMigratedBlocks)
	}
	if c.Rewrites != 1 {
		t.Errorf("rewriter: %d files rewritten, want the 1 queued", c.Rewrites)
	}
	if c.TierPasses != 1 || c.TierDemotedBlocks == 0 {
		t.Errorf("tier: %d passes, %d blocks demoted, want 1 pass and work done", c.TierPasses, c.TierDemotedBlocks)
	}

	// With nothing to defragment or rewrite, whatever the pacer injects was
	// injected into tier copies.
	ctx2, unaged := tieredFS(t, false)
	r2 := defrag.New(unaged, defrag.Config{Budget: 0.2})
	bg2 := sim.NewCtx(2, 1)
	bg2.AdvanceTo(ctx2.Now())
	if _, err := r2.Step(bg2); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.DefragMigratedBlocks != 0 || c.Rewrites != 0 || c.TierDemotedBlocks == 0 {
		t.Fatalf("unaged mount: %d blocks defragmented, %d rewrites, %d demoted; want tier work only",
			c.DefragMigratedBlocks, c.Rewrites, c.TierDemotedBlocks)
	}
	if r2.Counters().DefragThrottleNS == 0 {
		t.Error("tier copies ran unthrottled: the pacer injected nothing")
	}

	// The daemon's scrape: read the snapshot while the runner steps.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c := r.Counters()
				if r.Counters().DefragThrottleNS < c.DefragThrottleNS {
					t.Error("throttle total went backwards between two reads")
				}
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := r.Step(bg); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := fs.Audit(bg); err != nil {
		t.Fatalf("audit after runner: %v", err)
	}
}
