package main

import (
	"fmt"
	"runtime"

	"repro/internal/bench"
	"repro/internal/fileserver"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// winebench -scaling: the fxmark-style concurrency scalability suite.
// Every (case, transport, threads) point boots a fresh strict-mode WineFS
// on scalingCPUs simulated CPUs and runs `threads` concurrent workers,
// thread t pinned to CPU t — that 1:1 pinning is what makes the work
// counters exactly reproducible, so BENCH_scaling.json can gate on them.
// Threads sweep 1→scalingCPUs; the interesting signal is the shape:
// shared reads, disjoint-range writes and private appends speed up with
// thread count until the device ports saturate, while overlapping writes
// and single-directory metadata churn serialise on the contended lock.

const scalingCPUs = 128

func scalingThreadCounts() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128} }

// scalingPoint aggregates one (case, transport, threads) cell over its
// threads.
type scalingPoint struct {
	// Ops and Bytes are summed over threads and exactly reproducible.
	Ops, Bytes int64
	// SpanNS is the slowest thread's virtual time; OpsPerSec is Ops/SpanNS
	// in virtual seconds. Contention-derived, so toleranced in the report.
	SpanNS    int64
	OpsPerSec float64
	// Counters merges the worker threads' counters (local) or the server
	// sessions' (server). Setup work is excluded in both transports.
	Counters perf.Counters
}

// runScalingBench sweeps every fxmark case over both transports and all
// thread counts and packs the report. Work counters
// are exact at every scale; timings and allocator placement are compared
// only up to bench's strict-timing thread count.
func runScalingBench(o options) (*bench.Report, error) {
	ops := scalingOps
	if o.quick {
		ops = scalingOpsQuick
	}
	// Points are independent — each boots a fresh device and file system —
	// so they run concurrently via sim.ParallelRunner into per-index slots;
	// the report order is the job-list order regardless of host scheduling,
	// and every point's numbers are identical to a sequential sweep's.
	type scalingJob struct {
		c         workloads.FxmarkCase
		transport string
		threads   int
	}
	var jobs []scalingJob
	for _, c := range workloads.FxmarkCases() {
		for _, transport := range []string{"local", "server"} {
			for _, threads := range scalingThreadCounts() {
				jobs = append(jobs, scalingJob{c, transport, threads})
			}
		}
	}
	pts := make([]scalingPoint, len(jobs))
	errs := make([]error, len(jobs))
	// Each in-flight point backs its own device (hundreds of MiB at high
	// thread counts), so cap the workers rather than matching host cores.
	pr := sim.ParallelRunner{Workers: min(runtime.GOMAXPROCS(0), 4)}
	pr.Run(len(jobs), func(i int) {
		j := jobs[i]
		pts[i], errs[i] = runScalingPoint(j.c, j.transport, j.threads, ops, o.seed)
	})
	rep := bench.New("scaling/v1", map[string]float64{
		"CPUs": scalingCPUs, "OpsPerThread": float64(ops), "Seed": float64(o.seed)})
	for i, err := range errs {
		j, pt := jobs[i], &pts[i]
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%d threads: %w", j.c, j.transport, j.threads, err)
		}
		p := rep.Point(map[string]string{"Case": string(j.c), "Transport": j.transport}, j.threads)
		p.Ints(map[string]int64{"Ops": pt.Ops, "Bytes": pt.Bytes, "SpanNS": pt.SpanNS,
			"LockWaitNS": pt.Counters.LockWaitNS})
		p.Floats(map[string]float64{"OpsPerSec": pt.OpsPerSec})
		p.AddCounters("Counters.", &pt.Counters)
	}

	return rep, nil
}

// scalingTables prints a -scaling report: ops/s by case and thread count,
// one table per transport.
func scalingTables(rep *bench.Report) []bench.Table {
	var tables []bench.Table
	for _, transport := range []string{"local", "server"} {
		tables = append(tables, bench.Table{
			Title: fmt.Sprintf("Scalability (%s transport): virtual kops/s vs threads, %.0f CPUs", transport, rep.Config["CPUs"]),
			Where: map[string]string{"Transport": transport}, Rows: []string{"Case"}, RowHead: "case", Pivot: "Threads",
			Cols: []bench.Col{{Field: "OpsPerSec", Fmt: "%.1f", Scale: 1e-3}},
		})
	}
	return tables
}

// runScalingPoint measures one (case, transport, threads) cell on a fresh
// file system. Setup always runs single-threaded directly against the FS;
// only the measured loops go through the transport under test.
func runScalingPoint(c workloads.FxmarkCase, transport string, threads, ops int, seed uint64) (scalingPoint, error) {
	var pt scalingPoint
	cfg := workloads.FxmarkConfig{Ops: ops, Seed: seed}
	dev := pmem.New(1 << 30)
	setupCtx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(setupCtx, dev, winefs.Options{CPUs: scalingCPUs, Mode: vfs.Strict})
	if err != nil {
		return pt, fmt.Errorf("mkfs: %w", err)
	}
	if err := workloads.FxmarkSetup(setupCtx, fs, c, threads); err != nil {
		return pt, err
	}

	// Lock and device-port calendars extend to setup's virtual frontier;
	// workers start there, not at 0, or their first acquisition would charge
	// the whole setup history as phantom lock wait.
	epoch := setupCtx.Now()
	var srv *fileserver.Server
	serveErr := make(chan error, 1)
	targets := make([]vfs.FS, threads)
	switch transport {
	case "local":
		for t := range targets {
			targets[t] = fs
		}
	case "server":
		srv = fileserver.New(fs, fileserver.Config{CPUs: scalingCPUs, BaseNS: epoch})
		pl := fileserver.NewPipeListener()
		go func() { serveErr <- srv.Serve(pl) }()
		// Dial sequentially: session ids assign in accept order and pin
		// sessions to CPU id%CPUs, so this is what pins thread t's server
		// session to CPU t.
		for t := range targets {
			conn, err := pl.Dial()
			if err != nil {
				return pt, fmt.Errorf("dial %d: %w", t, err)
			}
			cl, err := fileserver.Dial(conn)
			if err != nil {
				return pt, fmt.Errorf("dial %d: %w", t, err)
			}
			targets[t] = cl
		}
	default:
		return pt, fmt.Errorf("unknown transport %q", transport)
	}

	results := make([]workloads.FxmarkThreadResult, threads)
	ctxs := sim.NewThreads(threads, 100, threads, epoch)
	if err := sim.RunThreads(ctxs, func(t int, ctx *sim.Ctx) (err error) {
		if results[t], err = workloads.FxmarkThread(ctx, targets[t], t, c, threads, cfg); err != nil {
			return fmt.Errorf("thread %d: %w", t, err)
		}
		return nil
	}); err != nil {
		return pt, err
	}
	if srv != nil {
		srv.Shutdown()
		if err := <-serveErr; err != nil {
			return pt, fmt.Errorf("serve: %w", err)
		}
	}

	for t := 0; t < threads; t++ {
		pt.Ops += results[t].Ops
		pt.Bytes += results[t].Bytes
		if results[t].VirtualNS > pt.SpanNS {
			pt.SpanNS = results[t].VirtualNS
		}
		pt.Counters.Add(ctxs[t].Counters)
	}
	if srv != nil {
		// Through winefsd the file-system work (and so the lock waiting)
		// happens on the server sessions, not the client threads.
		st := srv.Stats()
		pt.Counters.Add(&st.Counters)
	}
	if pt.SpanNS > 0 {
		pt.OpsPerSec = float64(pt.Ops) / (float64(pt.SpanNS) / 1e9)
	}
	// Everything that could touch the device is torn down (threads joined,
	// server drained), so its chunks go back to the allocator pool for the
	// next point. Skipped on error paths: an aborting sweep may still have
	// a live server writing.
	dev.Release()
	return pt, nil
}
