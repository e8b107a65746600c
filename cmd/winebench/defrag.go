package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
	"repro/internal/defrag"
	"repro/internal/experiments"
	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// The -defrag bench exercises the §3.5 online defragmenter end to end
// and gates both halves of its contract:
//
//   - Recovery: on an adversarially aged image (zero free aligned
//     extents) a live mapping that faulted in entirely as base pages
//     must, after the defragmenter converges, recover at least 90% of
//     the hugepage coverage the same workload gets on an unaged image —
//     without a single refault (migrations re-form aligned extents, the
//     reactive rewrite re-lands the file on them, and the promotion
//     notification upgrades the live mapping in place).
//   - Interference: the maintenance work must cost what the paper says
//     it costs. Unthrottled, a concurrent defragmentation steals 25–40%
//     of a foreground mmap reader's bandwidth (§4); under the duty-cycle
//     pacer it must steal at most 10%.

// defragMinRecovery gates recovered coverage relative to unaged.
const defragMinRecovery = 0.90

// defragUnthrottledMin/Max bound the §4 unthrottled interference band.
const (
	defragUnthrottledMin = 25.0
	defragUnthrottledMax = 40.0
)

// defragThrottledMax bounds slowdown under the paced duty cycle.
const defragThrottledMax = 10.0

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

// runDefragBench runs the soak and both interference variants, prints
// the comparison, enforces the gates and packs the report.
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

	t := &experiments.Table{
		Title: fmt.Sprintf("Online defrag: %dMiB mapped file on an aged image, %dMiB foreground vs %dMiB victim",
			soakFile>>20, fgSize>>20, vicSize>>20),
		Header: []string{"metric", "value"},
	}
	cover := func(h, t int) string { return fmt.Sprintf("%d/%d chunks", h, t) }
	t.Rows = append(t.Rows,
		[]string{"unaged hugepage coverage", cover(soak.UnagedHuge, soak.UnagedTotal)},
		[]string{"aged hugepage coverage", cover(soak.AgedHuge, soak.AgedTotal)},
		[]string{"after defrag", cover(soak.DefragHuge, soak.DefragTotal)},
		[]string{"recovered coverage", fmt.Sprintf("%.0f%%", 100*soak.RecoveredCoverage())},
		[]string{"defrag passes", fmt.Sprintf("%d", soak.Passes)},
		[]string{"2MiB extents re-formed", fmt.Sprintf("%d", soak.Recovered2M)},
		[]string{"blocks migrated", fmt.Sprintf("%d", soak.MigratedBlocks)},
		[]string{"files rewritten", fmt.Sprintf("%d", soak.Rewrites)},
		[]string{"chunks re-promoted live", fmt.Sprintf("%d", soak.Repromoted)},
	)
	for _, v := range interference {
		name := "unthrottled"
		if v.Budget < 1 {
			name = fmt.Sprintf("throttled (budget %.0f%%)", 100*v.Budget)
		}
		t.Rows = append(t.Rows, []string{
			"fg slowdown, " + name, fmt.Sprintf("%.1f%%", v.SlowdownPct)})
	}
	t.Print(os.Stdout)

	// Gates.
	unaged := soak.RecoveredCoverage() / covOr1(soak.UnagedHuge, soak.UnagedTotal)
	if unaged < defragMinRecovery {
		return nil, fmt.Errorf("defrag recovered %.0f%% of unaged hugepage coverage, below required %.0f%%",
			100*unaged, 100*defragMinRecovery)
	}
	for _, v := range interference {
		if v.Budget >= 1 {
			if v.SlowdownPct < defragUnthrottledMin || v.SlowdownPct > defragUnthrottledMax {
				return nil, fmt.Errorf("unthrottled defrag slowdown %.1f%% outside the paper's %g-%g%% band",
					v.SlowdownPct, defragUnthrottledMin, defragUnthrottledMax)
			}
		} else if v.SlowdownPct > defragThrottledMax {
			return nil, fmt.Errorf("throttled defrag slowdown %.1f%% above the %.0f%% bound",
				v.SlowdownPct, defragThrottledMax)
		}
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
	return rep, nil
}

func covOr1(huge, total int) float64 {
	if total == 0 || huge == 0 {
		return 1
	}
	return float64(huge) / float64(total)
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
