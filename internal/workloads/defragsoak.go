package workloads

import (
	"fmt"

	"repro/internal/defrag"
	"repro/internal/mmu"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

// DefragSoak is the winebench -defrag recovery workload: it measures how
// much hugepage coverage the online defragmenter (§3.5) gives back to a
// live mapping on an adversarially aged image.
//
// Three conditions on the same configuration:
//
//  1. unaged — a fresh image; the bench file tiles aligned extents and
//     the mapping faults in as hugepages (the control coverage).
//  2. aged — the image is churned into the Geriatrix endgame state
//     (every hugepage chunk half-live, aligned pools empty) before the
//     bench file is created; its extents come from unaligned holes and
//     the same mapping faults in as base pages.
//  3. aged+defrag — the aged mapping stays live while the defragmenter
//     runs: migrations re-form aligned extents, the queued reactive
//     rewrite lands the bench file on them, and the promotion
//     notification upgrades the live mapping in place. Coverage is
//     re-read from the SAME mapping, with no further touches — any
//     recovery is the notification path, not refaults.

// DefragSoakConfig sizes the soak.
type DefragSoakConfig struct {
	// FileBytes is the mapped bench file (hugepage-rounded).
	FileBytes int64
	Seed      uint64
}

const (
	// soakUtil caps the churn fill's utilisation before the alternate
	// deletes.
	soakUtil = 0.8
	// soakBudget is the defragmenter duty cycle: the recovery phase is
	// about coverage, not interference.
	soakBudget = 0.5
)

// DefragSoakResult is the soak outcome.
type DefragSoakResult struct {
	// Coverage per condition (huge chunks / total faulted chunks).
	UnagedHuge, UnagedTotal int
	AgedHuge, AgedTotal     int
	DefragHuge, DefragTotal int

	// DefragNS is the virtual time the maintenance thread spent
	// (including pacer-injected idle); SetupNS covers aging + layout.
	SetupNS  int64
	DefragNS int64

	// Defrag work done (baseline-gated exactly).
	Passes         int64
	MigratedBlocks int64
	Recovered2M    int64
	Filled         int64 // candidates the passes' own migrations filled
	Rewrites       int64
	Repromoted     int64

	// Counters snapshots the defrag thread's counters.
	Counters perf.Counters
}

// cov is a hugepage coverage in [0,1]: huge of total pages.
func cov(huge, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(huge) / float64(total)
}

// RecoveredCoverage is the defragmented condition's coverage.
func (r DefragSoakResult) RecoveredCoverage() float64 { return cov(r.DefragHuge, r.DefragTotal) }

// RunDefragSoak runs the three conditions. mk builds a fresh WineFS on a
// fresh device each time (the conditions must not share state); cpus
// places the maintenance thread on the last CPU, away from the mapper.
func RunDefragSoak(mk func(ctx *sim.Ctx) (*winefs.FS, error), cpus int, cfg DefragSoakConfig) (DefragSoakResult, error) {
	cfg.FileBytes = (cfg.FileBytes + mmu.HugePage - 1) / mmu.HugePage * mmu.HugePage
	var res DefragSoakResult

	// Condition 1: unaged control.
	{
		ctx := sim.NewCtx(1, 0)
		fs, err := mk(ctx)
		if err != nil {
			return res, err
		}
		m, err := soakMapFile(ctx, fs, cfg)
		if err != nil {
			return res, fmt.Errorf("unaged: %w", err)
		}
		res.UnagedHuge, res.UnagedTotal = m.FaultedChunks()
		if err := m.Close(ctx); err != nil {
			return res, err
		}
	}

	// Conditions 2+3 share one image: age, map, measure, defrag, re-measure.
	ctx := sim.NewCtx(2, 0)
	fs, err := mk(ctx)
	if err != nil {
		return res, err
	}
	setupStart := ctx.Now()
	if err := churnAge(ctx, fs, soakUtil); err != nil {
		return res, fmt.Errorf("age: %w", err)
	}
	m, err := soakMapFile(ctx, fs, cfg)
	if err != nil {
		return res, fmt.Errorf("aged: %w", err)
	}
	res.SetupNS = ctx.Now() - setupStart
	res.AgedHuge, res.AgedTotal = m.FaultedChunks()

	// The maintenance thread: its own context on the last CPU, booked
	// against the same device calendar as any foreground work would be.
	if cpus < 1 {
		cpus = 1
	}
	bg := sim.NewCtx(3, cpus-1)
	bg.AdvanceTo(ctx.Now())
	defragStart := bg.Now()
	r := defrag.New(fs, defrag.Config{Budget: soakBudget})
	sum, err := r.Run(bg)
	if err != nil {
		return res, fmt.Errorf("defrag: %w", err)
	}
	res.DefragNS = bg.Now() - defragStart
	res.DefragHuge, res.DefragTotal = m.FaultedChunks()
	res.Passes = bg.Counters.DefragPasses
	res.MigratedBlocks = sum.MigratedBlocks
	res.Recovered2M = sum.Recovered2M
	res.Filled = sum.Filled
	res.Rewrites = int64(sum.Rewrites)
	res.Repromoted = bg.Counters.DefragRepromotions
	res.Counters = *bg.Counters
	if err := m.Close(bg); err != nil {
		return res, err
	}
	return res, nil
}

// soakMapFile creates the bench file, prewrites it, maps it and faults
// every chunk in.
func soakMapFile(ctx *sim.Ctx, fs *winefs.FS, cfg DefragSoakConfig) (*vmm.Mapping, error) {
	f, err := fs.Create(ctx, "/defrag.bench")
	if err != nil {
		return nil, err
	}
	// Preallocate in one call: on the unaged image the whole file comes
	// out of the aligned pool (the control layout); on the aged image the
	// same call falls back to unaligned holes (the fragmented condition).
	if err := f.Fallocate(ctx, 0, cfg.FileBytes); err != nil {
		return nil, err
	}
	fill := make([]byte, 1<<20)
	for i := range fill {
		fill[i] = byte(i * 13)
	}
	for off := int64(0); off < cfg.FileBytes; off += int64(len(fill)) {
		if _, err := f.WriteAt(ctx, fill, off); err != nil {
			return nil, fmt.Errorf("prewrite at %d: %w", off, err)
		}
	}
	m, err := vmm.Map(ctx, f, cfg.FileBytes, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		return nil, err
	}
	if err := m.Touch(ctx, 0, cfg.FileBytes, false); err != nil {
		return nil, err
	}
	return m, nil
}

// churnAge drives the image into the aged endgame every real ager
// converges to at high churn: utilisation brought up with 1MiB files
// (which pack two per hugepage chunk), then every other file deleted,
// so each touched chunk is half live. The aligned extents the fill cap
// left untouched are pinned by a long-lived file, so the bench file —
// and every later allocation — must come from unaligned holes: the
// worst case §3.5 exists for, with zero free aligned extents despite
// ample free space.
func churnAge(ctx *sim.Ctx, fs *winefs.FS, util float64) error {
	var names []string
	buf := make([]byte, 1<<20)
	for i := 0; ; i++ {
		st := fs.StatFS(ctx)
		if 1-float64(st.FreeBlocks)/float64(st.TotalBlocks) >= util {
			break
		}
		name := fmt.Sprintf("/churn%05d", i)
		f, err := fs.Create(ctx, name)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			return err
		}
		names = append(names, name)
	}
	for i := 0; i < len(names); i += 2 {
		if err := fs.Unlink(ctx, names[i]); err != nil {
			return err
		}
	}
	// Pin what is left of the aligned pools.
	pin, err := fs.Create(ctx, "/churn.pin")
	if err != nil {
		return err
	}
	var off int64
	for i := 0; i < 32; i++ {
		aligned := fs.StatFS(ctx).FreeAligned2M
		if aligned == 0 {
			return nil
		}
		n := aligned * mmu.HugePage
		if err := pin.Fallocate(ctx, off, n); err != nil {
			return err
		}
		off += n
	}
	if got := fs.StatFS(ctx).FreeAligned2M; got != 0 {
		return fmt.Errorf("aging left %d aligned extents free", got)
	}
	return nil
}
