package workloads

import (
	"fmt"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// TieredSweep is the winebench -tier workload: size a working set as a
// multiple of the PM tier's data capacity, write it (allocations past the
// high-water mark spill to the slow tier instead of failing), then hammer
// it with a 90/10 hotspot read/write mix while periodic migration passes
// demote cold extents and promote reheated ones. Swept over working-set
// fractions {0.5, 1, 1.5, 2}x PM it produces the graceful-degradation
// curve the tiering policy is judged by: at <=1x everything stays in PM
// and throughput matches the untiered control; past 1x the skew keeps
// the hot set PM-resident, so throughput degrades with the miss ratio
// rather than collapsing to slow-device speed.

// The sweep's fixed shape.
const (
	// TieredOpSize is bytes per access: the slow tier's page.
	TieredOpSize = 4096
	// TieredReadFrac is the fraction of ops that read.
	TieredReadFrac = 0.9
	// TieredHotDataFrac / TieredHotAccessFrac shape the hotspot skew:
	// TieredHotAccessFrac of the accesses go to a uniformly chosen slot
	// inside the hottest TieredHotDataFrac of the working set (0.9 to 0.1
	// — the 90/10 rule tiering studies are built on). The rest spread
	// uniformly over the cold remainder.
	TieredHotDataFrac   = 0.1
	TieredHotAccessFrac = 0.9
	// TieredPassEvery runs a tier-migration pass every N ops on tiered
	// mounts.
	TieredPassEvery = 2000
	// TieredPassBudget is MaxMigrateBlocks per pass.
	TieredPassBudget = 4096
	// tieredFileBytes is the per-file size: one hugepage, the migration
	// unit.
	tieredFileBytes = int64(2 << 20)
)

// TieredSweepConfig sizes one sweep. The same config runs against a
// tiered mount and the all-in-PM control (a big untiered device), so the
// working set is absolute bytes, not a fraction — the caller derives it
// from the tiered mount's PM capacity once and reuses it for the control.
type TieredSweepConfig struct {
	// WorkingSetBytes is the total data the sweep touches (rounded up to
	// a whole number of files).
	WorkingSetBytes int64
	// Ops is the number of accesses in the measured sweep.
	Ops int
	// WarmupOps run before measurement starts: heat accumulates and the
	// migration passes converge placement — the one-time un-scrambling of
	// the setup-time layout is several thousand blocks of copies — so the
	// sweep measures the policy's steady state rather than the convergence
	// transient.
	WarmupOps int
	Seed      uint64
}

// TieredSweepResult is one sweep's outcome.
type TieredSweepResult struct {
	// Files and WorkingSetBytes echo the laid-out data set.
	Files           int
	WorkingSetBytes int64

	// SetupNS covers creating and writing the working set — where
	// allocation spill happens when it exceeds PM.
	SetupNS int64
	// WarmupNS is the virtual time of the unmeasured warmup accesses.
	WarmupNS int64
	// SweepNS is the virtual time of the measured access phase, including
	// the interleaved migration passes.
	SweepNS int64
	// Ops/Bytes echo the work done (baseline-gated exactly).
	Ops   int64
	Bytes int64
	// NSPerOp is SweepNS / Ops.
	NSPerOp float64
	// Passes is the number of migration passes the sweep ran.
	Passes int64

	// SetupCounters snapshots the setup phase (spill counters live here);
	// Counters snapshots the measured sweep thread (cold-miss slow-device
	// traffic, faults); MigrCounters snapshots the background migration
	// thread (tier demotions/promotions and their copy traffic).
	SetupCounters perf.Counters
	Counters      perf.Counters
	MigrCounters  perf.Counters

	// Tier is the end-of-sweep occupancy; TierOK is false on the
	// untiered control.
	Tier   winefs.TierStats
	TierOK bool
}

// GBps is the sweep's data rate in gigabytes per virtual second.
func (r TieredSweepResult) GBps() float64 {
	if r.SweepNS == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.SweepNS)
}

// RunTieredSweep lays the working set out on fs (which must be freshly
// made) and runs the sweep. ctx drives setup; the measured phase runs on
// a fresh bench context advanced past setup, so layout cost never bleeds
// into the access numbers.
func RunTieredSweep(ctx *sim.Ctx, fs *winefs.FS, cfg TieredSweepConfig) (TieredSweepResult, error) {
	var res TieredSweepResult
	if cfg.WorkingSetBytes <= 0 {
		return res, fmt.Errorf("tieredsweep: WorkingSetBytes not set")
	}
	nFiles := int((cfg.WorkingSetBytes + tieredFileBytes - 1) / tieredFileBytes)
	res.Files = nFiles
	res.WorkingSetBytes = int64(nFiles) * tieredFileBytes

	setupBase := *ctx.Counters
	setupStart := ctx.Now()
	fill := make([]byte, 1<<20)
	for i := range fill {
		fill[i] = byte(i*13 + 7)
	}
	files := make([]vfs.File, nFiles)
	for i := 0; i < nFiles; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/ts%05d", i))
		if err != nil {
			return res, fmt.Errorf("tieredsweep: create %d: %w", i, err)
		}
		for off := int64(0); off < tieredFileBytes; off += int64(len(fill)) {
			n := int64(len(fill))
			if off+n > tieredFileBytes {
				n = tieredFileBytes - off
			}
			// A tiered mount must absorb the overflow by spilling; ENOSPC
			// here means the slow tier failed its one job.
			if _, err := f.WriteAt(ctx, fill[:n], off); err != nil {
				return res, fmt.Errorf("tieredsweep: write file %d at %d: %w", i, off, err)
			}
		}
		files[i] = f
	}
	res.SetupNS = ctx.Now() - setupStart
	res.SetupCounters = *ctx.Counters
	res.SetupCounters.Sub(&setupBase)

	// Measured phase on a fresh context past every setup booking. The
	// migration passes run on their own simulated thread, the way the
	// winefsd daemon runs them: their copy traffic does not advance the
	// sweep thread's clock, but lock contention and slow-device queueing
	// still couple the two through the shared calendars.
	bench := sim.NewCtx(97, 0)
	bench.AdvanceTo(ctx.Now())
	mctx := sim.NewCtx(98, 0)

	rng := sim.NewRand(cfg.Seed + 31)
	slotsPerFile := tieredFileBytes / TieredOpSize
	nSlots := int64(nFiles) * slotsPerFile
	hotSlots := int64(TieredHotDataFrac * float64(nSlots))
	if hotSlots < 1 {
		hotSlots = 1
	}
	buf := make([]byte, TieredOpSize)
	val := make([]byte, TieredOpSize)
	for i := range val {
		val[i] = byte(i*13 + 7)
	}
	// Rank 0 is the hottest slot. Scatter the FILE a rank lands in with a
	// multiplicative permutation (1000003 is prime, so coprime with any
	// realistic file count) while keeping ranks dense within a file.
	// Without this the hot head would land in whichever files were
	// created first — exactly the ones PM kept at setup — and the sweep
	// would never exercise heat-driven migration: the placement would be
	// born perfect. Scattering whole files (not 4KiB slots) keeps the
	// per-extent heat signal sharp, which is the granularity the
	// migration policy decides at.
	const scatter = 1000003
	access := func(i int, measured bool) error {
		var rank int64
		if rng.Float64() < TieredHotAccessFrac {
			rank = rng.Int63n(hotSlots)
		} else {
			rank = hotSlots + rng.Int63n(nSlots-hotSlots)
		}
		slot := ((rank / slotsPerFile * scatter) % int64(nFiles)) * slotsPerFile
		slot += rank % slotsPerFile
		f := files[slot/slotsPerFile]
		off := (slot % slotsPerFile) * TieredOpSize
		if rng.Float64() < TieredReadFrac {
			if _, err := f.ReadAt(bench, buf, off); err != nil {
				return fmt.Errorf("tieredsweep: read op %d: %w", i, err)
			}
		} else {
			if _, err := f.WriteAt(bench, val, off); err != nil {
				return fmt.Errorf("tieredsweep: write op %d: %w", i, err)
			}
		}
		if measured {
			res.Ops++
			res.Bytes += TieredOpSize
		}
		if fs.Tiered() && (i+1)%TieredPassEvery == 0 {
			mctx.AdvanceTo(bench.Now())
			if _, err := fs.TierPass(mctx, winefs.TierPassOptions{MaxMigrateBlocks: TieredPassBudget}); err != nil {
				return fmt.Errorf("tieredsweep: pass at op %d: %w", i, err)
			}
			res.Passes++
		}
		return nil
	}

	warmStart := bench.Now()
	for i := 0; i < cfg.WarmupOps; i++ {
		if err := access(i, false); err != nil {
			return res, err
		}
	}
	res.WarmupNS = bench.Now() - warmStart

	benchBase := *bench.Counters
	sweepStart := bench.Now()
	for i := 0; i < cfg.Ops; i++ {
		if err := access(cfg.WarmupOps+i, true); err != nil {
			return res, err
		}
	}
	res.SweepNS = bench.Now() - sweepStart
	res.NSPerOp = float64(res.SweepNS) / float64(res.Ops)
	res.Counters = *bench.Counters
	res.Counters.Sub(&benchBase)
	res.MigrCounters = *mctx.Counters

	res.Tier, res.TierOK = fs.TierStats()
	if err := fs.Audit(bench); err != nil {
		return res, fmt.Errorf("tieredsweep: audit: %w", err)
	}
	return res, nil
}
