package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelRunner executes independent virtual-thread jobs on real host
// cores. It exists because determinism makes this safe: a simulated
// thread's virtual-time results (clock, counters, traces) depend only on
// its own inputs and on the virtual-time calendars of the Resources it
// shares — never on host scheduling. Two jobs that share NO Resource
// (separate campaign seeds each booting their own device and file system,
// separate bench points each on a fresh FS) therefore produce bit-identical
// results whether they run back to back on one core or concurrently on
// sixteen.
//
// The determinism argument, precisely:
//
//  1. Each job i writes only into its own index-i result slot (the job
//     closure must uphold this; the runner hands out disjoint indices).
//  2. Jobs share no sim.Resource, no Device, no FS — so no virtual-time
//     calendar sees bookings from two jobs, and no job's clock can observe
//     another job's progress.
//  3. The caller merges result slots in index order after Run returns.
//
// Under 1–3, the merged counters, clocks and traces are a pure function of
// (job inputs, index order) — host core count and scheduling cannot leak
// in. The determinism golden test locks this: a campaign run under
// ParallelRunner must match the sequential loop bit for bit.
//
// Jobs that DO share a Resource (the fxmark threads inside one bench
// point) still run concurrently today on plain goroutines; their
// contention-derived timings are deterministic in distribution only, and
// the bench baselines already treat them with tolerance. ParallelRunner is
// for the outer, share-nothing level: seeds, points, images.
type ParallelRunner struct {
	// Workers bounds concurrent jobs. 0 means GOMAXPROCS. Memory-heavy
	// jobs (each bench point backs up to a GiB of device chunks) should
	// set an explicit cap.
	Workers int
}

// Run executes job(0..n-1) across the worker pool and returns when every
// job finished. Indices are handed out in order; completion order is
// unspecified, which is why results must go into per-index slots.
func (r *ParallelRunner) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
