// Package defrag is the background maintenance driver (§3.5): it owns
// the one duty-cycle pacer and the pass loop around the file system's
// three relocation policies — winefs.DefragPass (which also drains the
// reactive-rewrite queue) and, on a tiered mount, winefs.TierPass — and
// exposes a race-free counter snapshot for the daemon's metrics
// endpoint. The heavy lifting — candidate scanning, holds, migrations,
// re-promotion — lives in the file system itself, because it needs the
// allocator's and the journal's locks; this package decides when and how
// hard to run it.
package defrag

import (
	"sync"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// Config tunes the runner.
type Config struct {
	// Budget is the duty-cycle fraction of device time maintenance
	// may consume (§4: unthrottled it steals 25-40% of foreground mmap
	// bandwidth). <= 0 selects the 0.1 default; >= 1 runs unthrottled.
	Budget float64
	// MaxPasses bounds Run's pass loop (0 = 16). Aged images converge
	// over several passes: each migration can split a hole elsewhere,
	// leaving small stragglers for the next pass to sweep up.
	MaxPasses int
}

// Runner drives repeated maintenance passes over one file system. It is
// safe for one goroutine to Step/Run while others read Counters (the
// daemon's metrics scrape).
type Runner struct {
	fs    *winefs.FS
	cfg   Config
	pacer *sim.Pacer

	mu       sync.Mutex
	counters perf.Counters // snapshot of the maintenance thread's counters
}

// New builds a Runner; the Pacer is shared across passes and across the
// movers, so the duty cycle is enforced over the thread's lifetime, not
// reset per pass or per subsystem.
func New(fs *winefs.FS, cfg Config) *Runner {
	var p *sim.Pacer
	if cfg.Budget < 1 {
		p = sim.NewPacer(cfg.Budget)
	}
	return &Runner{fs: fs, cfg: cfg, pacer: p}
}

// Step runs one maintenance round on the given thread context: a
// defragmentation pass, the rewrite-queue drain inside it, and — when the
// mount is tiered — a tier-migration pass, all on the one pacer.
func (r *Runner) Step(ctx *sim.Ctx) (winefs.DefragStats, error) {
	st, err := r.fs.DefragPass(ctx, winefs.DefragOptions{Pacer: r.pacer})
	if err == nil {
		// A no-op on an untiered mount.
		_, err = r.fs.TierPass(ctx, winefs.TierPassOptions{Pacer: r.pacer})
	}
	r.mu.Lock()
	r.counters = *ctx.Counters
	r.mu.Unlock()
	return st, err
}

// Run loops Step until a pass finds nothing to do or MaxPasses is hit,
// returning the accumulated stats. This is the paper's maintenance
// thread body: aged images need several passes (each bounded by the
// migration budget) to re-form their aligned pools.
func (r *Runner) Run(ctx *sim.Ctx) (winefs.DefragStats, error) {
	max := r.cfg.MaxPasses
	if max <= 0 {
		max = 16
	}
	var sum winefs.DefragStats
	for i := 0; i < max; i++ {
		st, err := r.Step(ctx)
		sum.ChunksScanned += st.ChunksScanned
		sum.MigratedBlocks += st.MigratedBlocks
		sum.MigratedBytes += st.MigratedBytes
		sum.Recovered2M += st.Recovered2M
		sum.Rewrites += st.Rewrites
		sum.SkippedBusy += st.SkippedBusy
		sum.SkippedMeta += st.SkippedMeta
		if err != nil {
			return sum, err
		}
		if st.Clean() {
			break
		}
	}
	return sum, nil
}

// Counters returns a copy of the maintenance thread's perf counters as
// of the last completed round — the daemon's registry reads the defrag_*
// and tier_* metric families from this without racing the maintenance
// goroutine.
func (r *Runner) Counters() perf.Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters
}
