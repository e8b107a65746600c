package workloads_test

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// runFxmark boots a fresh strict-mode FS, runs one fxmark case at the
// given thread count (thread t pinned to CPU t, clocks aligned to the
// setup frontier), and returns the slowest thread's virtual span.
func runFxmark(t *testing.T, c workloads.FxmarkCase, threads int) int64 {
	t.Helper()
	const cpus = 8
	dev := pmem.New(1 << 30)
	setup := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(setup, dev, winefs.Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.FxmarkConfig{Ops: 64, Seed: 7}
	if err := workloads.FxmarkSetup(setup, fs, c, threads); err != nil {
		t.Fatal(err)
	}
	spans := make([]int64, threads)
	if err := sim.RunThreads(sim.NewThreads(threads, 100, cpus, setup.Now()), func(w int, ctx *sim.Ctx) error {
		res, err := workloads.FxmarkThread(ctx, fs, w, c, threads, cfg)
		if err != nil {
			return fmt.Errorf("%s thread %d: %v", c, w, err)
		}
		spans[w] = res.VirtualNS
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var span int64
	for _, s := range spans {
		span = max(span, s)
	}
	return span
}

// TestFxmarkScalingShape is the acceptance guard for the concurrency
// architecture, in test form: with 4 threads, shared reads and
// disjoint-range writes must run concurrently in virtual time (span well
// under 4x a single thread's), while overlapping writes to the same bytes
// must serialise (span growing with thread count like the single-thread
// span does). The committed BENCH_scaling.json tracks exact numbers; this
// test only pins the qualitative shape so `go test` catches a
// whole-inode-serialisation regression without the bench harness.
func TestFxmarkScalingShape(t *testing.T) {
	const threads = 4
	for _, tc := range []struct {
		c workloads.FxmarkCase
		// maxRatio bounds span(threads)/span(1) for scaling cases;
		// minRatio floors it for serialising cases.
		maxRatio, minRatio float64
	}{
		{c: workloads.FxSharedRead, maxRatio: 2.0},
		{c: workloads.FxDisjointWrite, maxRatio: 3.0},
		{c: workloads.FxPrivateAppend, maxRatio: 3.0},
		{c: workloads.FxOverlapWrite, minRatio: 3.0},
	} {
		one := runFxmark(t, tc.c, 1)
		many := runFxmark(t, tc.c, threads)
		ratio := float64(many) / float64(one)
		if tc.maxRatio > 0 && ratio > tc.maxRatio {
			t.Errorf("%s: span(%d)/span(1) = %.2f, want <= %.1f (threads are serialising)",
				tc.c, threads, ratio, tc.maxRatio)
		}
		if tc.minRatio > 0 && ratio < tc.minRatio {
			t.Errorf("%s: span(%d)/span(1) = %.2f, want >= %.1f (conflicting writes overlapped in virtual time)",
				tc.c, threads, ratio, tc.minRatio)
		}
	}
}
