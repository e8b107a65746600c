package main

import (
	"fmt"
	"strconv"

	"repro/internal/bench"
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

// runDefragBench runs the soak and both interference variants and packs
// the report.
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

	rep := bench.New("defrag/v1", map[string]float64{
		"SoakFileMB": float64(soakFile >> 20), "FgMB": float64(fgSize >> 20), "VictimMB": float64(vicSize >> 20),
		"CPUs": float64(cpus), "Seed": float64(o.seed)})
	p := rep.Point(map[string]string{"Part": "Soak"}, 0)
	p.Ints(map[string]int64{
		"UnagedHuge": int64(soak.UnagedHuge), "UnagedTotal": int64(soak.UnagedTotal),
		"AgedHuge": int64(soak.AgedHuge), "AgedTotal": int64(soak.AgedTotal),
		"DefragHuge": int64(soak.DefragHuge), "DefragTotal": int64(soak.DefragTotal),
		"Passes": soak.Passes, "MigratedBlocks": soak.MigratedBlocks, "Recovered2M": soak.Recovered2M,
		"Filled": soak.Filled, "Rewrites": soak.Rewrites, "Repromoted": soak.Repromoted,
		"SetupNS": soak.SetupNS, "DefragNS": soak.DefragNS})
	p.Floats(map[string]float64{"RecoveredCoverage": soak.RecoveredCoverage()})
	p.AddCounters("Counters.", &soak.Counters)

	// Part B: foreground interference (§4), unthrottled then paced, each on
	// a fresh file system.
	for _, budget := range []float64{1, defragThrottleBudget} {
		ctx := sim.NewCtx(1, 0)
		fs, err := mk(ctx)
		if err != nil {
			return nil, fmt.Errorf("interference budget=%g: %w", budget, err)
		}
		r, err := workloads.RunInterference(ctx, fs, cpus, fgSize, vicSize, budget)
		if err != nil {
			return nil, fmt.Errorf("interference budget=%g: %w", budget, err)
		}
		p := rep.Point(map[string]string{"Part": "Interference", "Budget": strconv.FormatFloat(budget, 'g', -1, 64)}, 0)
		p.Ints(map[string]int64{"Rewrites": int64(r.Rewrites), "MigratedBlocks": r.MigratedBlocks})
		p.Floats(map[string]float64{"BaselineBW": r.BaselineBW, "ContendedBW": r.ContendedBW, "SlowdownPct": r.SlowdownPct})
	}
	return rep, nil
}

// defragTables prints a -defrag report.
func defragTables(rep *bench.Report) []bench.Table {
	c := rep.Config
	return []bench.Table{{
		Title: fmt.Sprintf("Online defrag: %.0fMiB mapped file on an aged image, %.0fMiB foreground vs %.0fMiB victim",
			c["SoakFileMB"], c["FgMB"], c["VictimMB"]),
		Where: map[string]string{"Part": "Soak"},
		Cols: []bench.Col{
			{Head: "unaged hugepage coverage", Field: "UnagedHuge,UnagedTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "aged hugepage coverage", Field: "AgedHuge,AgedTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "after defrag", Field: "DefragHuge,DefragTotal", Fmt: "%.0f/%.0f chunks"},
			{Head: "recovered coverage", Field: "RecoveredCoverage", Fmt: "%.0f%%", Scale: 100},
			{Head: "defrag passes", Field: "Passes", Fmt: "%.0f"},
			{Head: "2MiB extents re-formed", Field: "Recovered2M", Fmt: "%.0f"},
			{Head: "candidates its moves filled", Field: "Filled", Fmt: "%.0f"},
			{Head: "blocks migrated", Field: "MigratedBlocks", Fmt: "%.0f"},
			{Head: "files rewritten", Field: "Rewrites", Fmt: "%.0f"},
			{Head: "chunks re-promoted live", Field: "Repromoted", Fmt: "%.0f"},
		},
	}, {
		Title: "Online defrag (§4): mapped foreground reads beside one pass, by duty-cycle budget (1 = unthrottled)",
		Where: map[string]string{"Part": "Interference"}, Rows: []string{"Budget"}, RowHead: "budget",
		Cols: []bench.Col{
			{Head: "fg alone", Field: "BaselineBW", Fmt: "%.2f GB/s"},
			{Head: "fg beside the pass", Field: "ContendedBW", Fmt: "%.2f GB/s"},
			{Head: "fg slowdown", Field: "SlowdownPct", Fmt: "%.1f%%"},
			{Head: "files rewritten", Field: "Rewrites", Fmt: "%.0f"},
			{Head: "blocks migrated", Field: "MigratedBlocks", Fmt: "%.0f"},
		},
	}}
}
