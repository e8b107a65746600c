package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
	"repro/internal/defrag"
	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// The -defrag bench exercises the §3.5 online defragmenter end to end,
// both halves of its contract (bench.Claims holds the bounds):
//
//   - Recovery: on an adversarially aged image (zero free aligned
//     extents) a live mapping that faulted in entirely as base pages
//     recovers, after the defragmenter converges, the hugepage coverage
//     the same workload gets on an unaged image — without a single
//     refault (migrations re-form aligned extents, the reactive rewrite
//     re-lands the file on them, and the promotion notification upgrades
//     the live mapping in place).
//   - Interference: the maintenance work costs what the paper says it
//     costs. Unthrottled, a concurrent defragmentation steals 25–40% of a
//     foreground mmap reader's bandwidth (§4); the duty-cycle pacer at
//     defragThrottleBudget keeps it to a fraction of that.

// defragThrottleBudget is the paced duty cycle the throttled
// interference variant runs at.
const defragThrottleBudget = 0.08

// defragInterfVariant is one interference run at a given budget.
type defragInterfVariant struct {
	// Budget is the defragmenter duty cycle (1 = unthrottled).
	Budget float64

	// Work done (exact).
	Rewrites       int64
	MigratedBlocks int64

	// Bandwidths in bytes per virtual ns (toleranced) and the derived
	// slowdown percentage.
	BaselineBW  float64
	ContendedBW float64
	SlowdownPct float64
}

// runDefragBench runs the soak and both interference variants, packs and
// prints the report.
func runDefragBench(o options) (*bench.Report, error) {
	cpus := o.cpus
	soakFile := int64(32 << 20)
	fgSize := int64(64 << 20)
	vicSize := int64(160 << 20)
	devSize := int64(512 << 20)
	if o.quick {
		soakFile = 16 << 20
		fgSize = 16 << 20
		vicSize = 32 << 20
		devSize = 256 << 20
	}

	// Part A: aged-image coverage recovery.
	maker, ok := fstest.ByName("WineFS", cpus)
	if !ok {
		return nil, fmt.Errorf("WineFS maker not registered")
	}
	mk := func(ctx *sim.Ctx) (*winefs.FS, error) {
		fs, err := maker.Make(ctx, pmem.New(devSize))
		if err != nil {
			return nil, err
		}
		return fs.(*winefs.FS), nil
	}
	soak, err := workloads.RunDefragSoak(mk, cpus, workloads.DefragSoakConfig{
		FileBytes: soakFile, Seed: o.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}

	// Part B: foreground interference, unthrottled then paced.
	var interference []defragInterfVariant
	for _, budget := range []float64{1, defragThrottleBudget} {
		v, err := runDefragInterference(maker, cpus, devSize, fgSize, vicSize, budget)
		if err != nil {
			return nil, fmt.Errorf("interference budget=%g: %w", budget, err)
		}
		interference = append(interference, v)
	}

	rep := bench.New("defrag/v1", map[string]float64{
		"SoakFileMB": float64(soakFile >> 20), "FgMB": float64(fgSize >> 20), "VictimMB": float64(vicSize >> 20),
		"CPUs": float64(cpus), "Seed": float64(o.seed)})
	p := rep.Point(map[string]string{"Part": "Soak"}, 0)
	p.Ints(map[string]int64{
		"UnagedHuge": int64(soak.UnagedHuge), "UnagedTotal": int64(soak.UnagedTotal),
		"AgedHuge": int64(soak.AgedHuge), "AgedTotal": int64(soak.AgedTotal),
		"DefragHuge": int64(soak.DefragHuge), "DefragTotal": int64(soak.DefragTotal),
		"Passes": soak.Passes, "MigratedBlocks": soak.MigratedBlocks, "Recovered2M": soak.Recovered2M,
		"Rewrites": soak.Rewrites, "Repromoted": soak.Repromoted,
		"SetupNS": soak.SetupNS, "DefragNS": soak.DefragNS})
	p.Floats(map[string]float64{"RecoveredCoverage": soak.RecoveredCoverage()})
	p.AddCounters("Counters.", &soak.Counters)
	for _, v := range interference {
		p := rep.Point(map[string]string{"Part": "Interference", "Budget": strconv.FormatFloat(v.Budget, 'g', -1, 64)}, 0)
		p.Ints(map[string]int64{"Rewrites": v.Rewrites, "MigratedBlocks": v.MigratedBlocks})
		p.Floats(map[string]float64{"BaselineBW": v.BaselineBW, "ContendedBW": v.ContendedBW, "SlowdownPct": v.SlowdownPct})
	}
	rep.Print(os.Stdout, bench.Table{
		Title: fmt.Sprintf("Online defrag: %dMiB mapped file on an aged image, %dMiB foreground vs %dMiB victim",
			soakFile>>20, fgSize>>20, vicSize>>20),
		Where: map[string]string{"Part": "Soak"},
		Cols: []bench.Col{
			{Head: "unaged hugepage coverage", Field: "UnagedHuge,UnagedTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "aged hugepage coverage", Field: "AgedHuge,AgedTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "after defrag", Field: "DefragHuge,DefragTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "recovered coverage", Field: "RecoveredCoverage", Fmt: "%.0f%%", Scale: 100},
			{Head: "defrag passes", Field: "Passes", Fmt: "%.0f"},
			{Head: "2MiB extents re-formed", Field: "Recovered2M", Fmt: "%.0f"},
			{Head: "blocks migrated", Field: "MigratedBlocks", Fmt: "%.0f"},
			{Head: "files rewritten", Field: "Rewrites", Fmt: "%.0f"},
			{Head: "chunks re-promoted live", Field: "Repromoted", Fmt: "%.0f"},
		},
	}, bench.Table{
		Title: "Online defrag: foreground slowdown by duty-cycle budget (1 = unthrottled)",
		Where: map[string]string{"Part": "Interference"}, Rows: []string{"Budget"}, RowHead: "budget",
		Cols: []bench.Col{{Head: "fg slowdown", Field: "SlowdownPct", Fmt: "%.1f%%"}},
	})
	return rep, nil
}

// runDefragInterference is the §4 experiment (workloads.RunInterference)
// with the full online defragmenter as the background thread: a
// pre-faulted foreground mapping sweeps while the maintenance thread
// migrates and rewrites a fragmented victim, and the foreground's
// bandwidth loss is measured against an uncontended baseline.
func runDefragInterference(maker fstest.Maker, cpus int, devSize, fgSize, vicSize int64, budget float64) (defragInterfVariant, error) {
	v := defragInterfVariant{Budget: budget}
	ctx := sim.NewCtx(1, 0)
	fs, err := maker.Make(ctx, pmem.New(devSize))
	if err != nil {
		return v, err
	}
	r, err := workloads.RunInterference(ctx, fs, cpus, fgSize, vicSize, func(bg *sim.Ctx) error {
		st, err := defrag.New(fs.(*winefs.FS), defrag.Config{Budget: budget, MaxPasses: 1}).Run(bg)
		v.Rewrites, v.MigratedBlocks = int64(st.Rewrites), st.MigratedBlocks
		return err
	})
	v.BaselineBW, v.ContendedBW, v.SlowdownPct = r.BaselineBW, r.ContendedBW, r.SlowdownPct
	return v, err
}
