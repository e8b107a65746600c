package workloads_test

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// goldenFingerprint captures everything a batching or scheduling bug could
// perturb: the final virtual clock, every perf counter, and the structured
// results of each phase (all scalar fields, so == is a full comparison).
type goldenFingerprint struct {
	clock     int64
	counters  perf.Counters
	fxmark    workloads.FxmarkThreadResult
	sweep     workloads.MmapSweepResult
	filebench workloads.FilebenchResult
	fbBlocks  int64 // blocks the Filebench run left allocated
	pgbench   workloads.PgbenchResult
}

// goldenFiles is the fileset of each job's one-thread Filebench run.
const goldenFiles = 40

// goldenJob runs one self-contained mixed workload — fxmark file churn
// through the VFS layer, an mmap sweep with a write phase through the MMU
// fine/stream paths, then one-thread runs of a Filebench personality and
// of Pgbench — on its own device and FS, audits the FS, and returns the
// fingerprint. exact selects the per-line reference arm of the MMU
// charging path.
func goldenJob(t *testing.T, i int, exact bool) goldenFingerprint {
	t.Helper()
	ctx := sim.NewCtx(100+i, i%4)
	dev := pmem.New(192 << 20)
	defer dev.Release()
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatalf("job %d: mkfs: %v", i, err)
	}
	fs.AddressSpace().Exact = exact

	var fp goldenFingerprint
	c := workloads.FxmarkCases()[i%len(workloads.FxmarkCases())]
	cfg := workloads.FxmarkConfig{Ops: 60, Seed: 0xD0_0D + uint64(i)}
	if err := workloads.FxmarkSetup(ctx, fs, c, 1); err != nil {
		t.Fatalf("job %d: fxmark setup: %v", i, err)
	}
	fp.fxmark, err = workloads.FxmarkThread(ctx, fs, 0, c, 1, cfg)
	if err != nil {
		t.Fatalf("job %d: fxmark: %v", i, err)
	}

	fp.sweep, err = workloads.RunMmapSweep(ctx, fs, workloads.MmapSweepConfig{
		FileBytes: 8 << 20,
		Reads:     1500,
		Seed:      uint64(i) + 1,
	})
	if err != nil {
		t.Fatalf("job %d: mmap sweep: %v", i, err)
	}

	p := workloads.AllPersonalities()[i%len(workloads.AllPersonalities())]
	free := fs.StatFS(ctx).FreeBlocks
	fp.filebench, err = workloads.Filebench(ctx, fs, p, workloads.FilebenchConfig{
		Threads: 1, Files: goldenFiles, OpsPerThread: 8, Seed: uint64(i) + 1,
	})
	if err != nil {
		t.Fatalf("job %d: filebench %s: %v", i, p, err)
	}
	fp.fbBlocks = free - fs.StatFS(ctx).FreeBlocks
	fp.pgbench, err = workloads.Pgbench(ctx, fs, workloads.PgbenchConfig{
		Threads: 1, DatabaseBytes: 4 << 20, TxPerThread: 20, Seed: uint64(i) + 1,
	})
	if err != nil {
		t.Fatalf("job %d: pgbench: %v", i, err)
	}

	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("job %d: audit: %v", i, err)
	}
	fp.clock = ctx.Now()
	fp.counters = *ctx.Counters
	return fp
}

// TestEngineDeterminismGolden is the contract the whole fast-path refactor
// hangs on: the batched charging path, the exact per-line reference path,
// and host-parallel execution must all produce bit-identical virtual
// results. Three arms run the same job set:
//
//	A: Exact=true, sequential      — the pre-refactor reference semantics
//	B: Exact=false, sequential     — batched charging
//	C: Exact=false, ParallelRunner — batched charging on host threads
//
// Any divergence in a clock, a counter, or a phase result is a bug in a
// batch-collapse argument (A vs B) or a determinism leak through shared
// host state (B vs C).
func TestEngineDeterminismGolden(t *testing.T) {
	const jobs = 5 // covers every fxmark case and Filebench personality once

	exact := make([]goldenFingerprint, jobs)
	batched := make([]goldenFingerprint, jobs)
	parallel := make([]goldenFingerprint, jobs)
	for i := 0; i < jobs; i++ {
		exact[i] = goldenJob(t, i, true)
	}
	for i := 0; i < jobs; i++ {
		batched[i] = goldenJob(t, i, false)
	}
	var pr sim.ParallelRunner
	pr.Run(jobs, func(i int) {
		parallel[i] = goldenJob(t, i, false)
	})

	for i := 0; i < jobs; i++ {
		if exact[i] != batched[i] {
			t.Errorf("job %d: batched path diverges from exact path:\n exact:   %+v\n batched: %+v",
				i, exact[i], batched[i])
		}
		if batched[i] != parallel[i] {
			t.Errorf("job %d: parallel run diverges from sequential run:\n sequential: %+v\n parallel:   %+v",
				i, batched[i], parallel[i])
		}
	}
	// Sanity: the jobs actually exercised the interesting machinery. The
	// sweep's measured phases run on their own bench context, so the MMU
	// traffic shows up in the sweep result's counters, not the job ctx.
	for i, fp := range batched {
		if fp.sweep.Counters.PageFaults == 0 && fp.sweep.Counters.HugeFaults == 0 {
			t.Errorf("job %d: no faults taken — sweep did not exercise the MMU", i)
		}
		if fp.sweep.Counters.TLBHits == 0 || fp.sweep.Counters.LLCMisses == 0 {
			t.Errorf("job %d: cache counters silent — batched charging not exercised", i)
		}
		if fp.counters.JournalCommits == 0 {
			t.Errorf("job %d: no journal commits — fxmark churn did not reach the FS", i)
		}
		// A fileset file averages 1.25x its personality's mean size (sizes
		// are uniform over half to double), and the eight iterations add a
		// little more, so the run leaves between one and two means per file.
		p := fp.filebench.Personality
		mean := map[workloads.Personality]int64{workloads.Varmail: 16, workloads.Fileserver: 128,
			workloads.Webserver: 64, workloads.Webproxy: 64}[p] << 10
		if used := fp.fbBlocks * winefs.BlockSize; used < goldenFiles*mean || used >= 2*goldenFiles*mean {
			t.Errorf("job %d: %s left %d bytes on %d files, want [1, 2) x the %d-byte mean per file",
				i, p, used, goldenFiles, mean)
		}
		if fp.filebench.Ops != 8 || fp.pgbench.Tx != 20 {
			t.Errorf("job %d: filebench %+v, pgbench %+v: iterations lost", i, fp.filebench, fp.pgbench)
		}
	}
}
