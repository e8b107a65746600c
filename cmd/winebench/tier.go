package main

import (
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// The -tier sweep measures the graceful-degradation curve of the PM+SSD
// tiering policy: the same zipfian read/write mix runs at working sets of
// {0.5, 1, 1.5, 2}x the PM tier's data capacity, once on a tiered mount
// (PM + simulated slow device, interleaved migration passes) and once on
// an all-in-PM control big enough to hold everything. At <=1x the tiers
// should be indistinguishable; past 1x the skewed access pattern keeps
// the hot head PM-resident and throughput must degrade with the miss
// ratio instead of collapsing to raw SSD speed; bench.Claims holds the 2x
// point to at least a quarter of the all-PM control.

// tierAgedDead is the aged point's pre-fill, in multiples of PM: files
// written once and never read, laid down before the working set so they
// hold PM when the sweep starts. The point runs the 1.5x working set and
// is held to the plain 1.5x point: data nobody reads must give its PM up
// to the data the sweep reads (DESIGN §14, usage.dead).
const tierAgedDead = 0.5

// tierAgedWarmup is the aged point's warm-up, in multiples of the sweep:
// long enough for the migration passes to finish trading dead data for
// data the sweep reads before anything is measured.
const tierAgedWarmup = 4

// runTierBench sweeps the working-set fractions and packs the report. In
// each point SetupCounters covers laying out the working set (allocation
// spill lives here), Counters the measured sweep thread (cold-miss
// slow-device traffic, faults) and MigrCounters the background migration
// thread (demotions/promotions and their copy traffic).
func runTierBench(o options) (*bench.Report, error) {
	cpus := o.cpus
	devSize := int64(256 << 20)
	cfg := workloads.TieredSweepConfig{Ops: 20000, Seed: o.seed}
	if o.quick {
		devSize = 128 << 20
		cfg.Ops = 8000
	}
	cfg.WarmupOps = cfg.Ops
	slowSize := 2 * devSize
	controlSize := 3 * devSize
	// The curve, then the aged point: the 1.5x working set again, behind
	// tierAgedDead of PM holding files nobody reads.
	fracs := []float64{0.5, 1.0, 1.5, 2.0, 1.5}
	deads := []float64{0, 0, 0, 0, tierAgedDead}

	// tiered[i] and control[i] ran working set fracs[i] behind deads[i]
	// of dead data; ratios[i] is tiered GBps / control GBps — the headline
	// curve.
	var tiered, control []workloads.TieredSweepResult
	var ratios []float64
	for i, frac := range fracs {
		pcfg := cfg
		if deads[i] > 0 {
			pcfg.WarmupOps = tierAgedWarmup * cfg.Ops
		}
		tv, cv, err := runTierPair(frac, deads[i], cpus, devSize, slowSize, controlSize, pcfg)
		if err != nil {
			return nil, fmt.Errorf("frac %.1f: %w", frac, err)
		}
		ratio := 0.0
		if cv.GBps() > 0 {
			ratio = tv.GBps() / cv.GBps()
		}
		tiered, control, ratios = append(tiered, tv), append(control, cv), append(ratios, ratio)
	}

	rep := bench.New("tier/v1", map[string]float64{
		"PMMB": float64(devSize >> 20), "SlowMB": float64(slowSize >> 20), "ControlMB": float64(controlSize >> 20),
		"Ops": float64(cfg.Ops), "OpSize": workloads.TieredOpSize, "ReadFrac": workloads.TieredReadFrac,
		"HotData": workloads.TieredHotDataFrac, "HotAccess": workloads.TieredHotAccessFrac,
		"PassEvery": workloads.TieredPassEvery, "CPUs": float64(cpus), "Seed": float64(o.seed),
		"AgedDead": tierAgedDead, "AgedWarmup": tierAgedWarmup})
	for i, frac := range fracs {
		for _, res := range []*workloads.TieredSweepResult{&tiered[i], &control[i]} {
			labels := map[string]string{"Frac": strconv.FormatFloat(frac, 'g', -1, 64), "Tiered": strconv.FormatBool(res.TierOK)}
			if deads[i] > 0 {
				labels["Dead"] = strconv.FormatFloat(deads[i], 'g', -1, 64)
			}
			p := rep.Point(labels, 0)
			// End-of-sweep occupancy is zero on the untiered control.
			p.Ints(map[string]int64{"Files": int64(res.Files), "WorkingSetBytes": res.WorkingSetBytes,
				"Ops": res.Ops, "Bytes": res.Bytes, "Passes": res.Passes,
				"PMFreeBlocks": res.Tier.PMFreeBlocks, "SlowFreeBlocks": res.Tier.SlowFreeBlocks,
				"SetupNS": res.SetupNS, "SweepNS": res.SweepNS})
			p.Floats(map[string]float64{"NSPerOp": res.NSPerOp, "GBps": res.GBps()})
			if res.TierOK {
				p.Floats(map[string]float64{"Ratio": ratios[i]})
			}
			p.AddCounters("SetupCounters.", &res.SetupCounters)
			p.AddCounters("Counters.", &res.Counters)
			p.AddCounters("MigrCounters.", &res.MigrCounters)
		}
	}
	return rep, nil
}

// tierTables prints a -tier report.
func tierTables(rep *bench.Report) []bench.Table {
	c := rep.Config
	return []bench.Table{{
		Title: fmt.Sprintf("Tiered PM+SSD vs all-in-PM: 90/10 hotspot, %.0f ops x %.0fB, %.0f%% reads, PM %.0fMiB + slow %.0fMiB",
			c["Ops"], c["OpSize"], 100*c["ReadFrac"], c["PMMB"], c["SlowMB"]),
		Rows: []string{"Frac", "Tiered", "Dead"}, RowHead: "frac tiered dead",
		Cols: []bench.Col{
			{Head: "GB/s", Field: "GBps", Fmt: "%.3f"},
			{Head: "ratio", Field: "Ratio", Fmt: "%.0f%%", Scale: 100},
			{Head: "setup spill blks", Field: "SetupCounters.AllocSpillBlocks", Fmt: "%.0f"},
			{Head: "sweep spill blks", Field: "Counters.AllocSpillBlocks", Fmt: "%.0f"},
			{Head: "slow reads", Field: "Counters.SlowReads", Fmt: "%.0f"},
			{Head: "demoted", Field: "MigrCounters.TierDemotedBlocks", Fmt: "%.0f"},
			{Head: "promoted", Field: "MigrCounters.TierPromotedBlocks", Fmt: "%.0f"},
		},
	}}
}

// runTierPair runs one working-set fraction on a fresh tiered mount and a
// fresh all-in-PM control, each first given dead times the PM data
// capacity in files that are written once and never read. The working set
// is derived from the tiered mount's PM data capacity and reused verbatim
// for the control, so both sweeps touch exactly the same bytes.
func runTierPair(frac, dead float64, cpus int, devSize, slowSize, controlSize int64, cfg workloads.TieredSweepConfig) (tv, cv workloads.TieredSweepResult, err error) {
	dev := pmem.New(devSize)
	slow := tier.NewSlow(tier.DefaultSlowConfig(slowSize))
	defer slow.Release()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cpus, Tier: &winefs.TierOptions{Slow: slow}})
	if err != nil {
		return tv, cv, fmt.Errorf("tiered mkfs: %w", err)
	}
	st, _ := fs.TierStats()
	cfg.WorkingSetBytes = int64(frac * float64(st.PMTotalBlocks*winefs.BlockSize))
	deadBytes := int64(dead * float64(st.PMTotalBlocks*winefs.BlockSize))

	if err := writeDeadFiles(ctx, fs, deadBytes); err != nil {
		return tv, cv, fmt.Errorf("tiered: %w", err)
	}
	if tv, err = workloads.RunTieredSweep(ctx, fs, cfg); err != nil {
		return tv, cv, fmt.Errorf("tiered sweep: %w", err)
	}

	cdev := pmem.New(controlSize)
	cctx := sim.NewCtx(1, 0)
	cfs, err := winefs.Mkfs(cctx, cdev, winefs.Options{CPUs: cpus})
	if err != nil {
		return tv, cv, fmt.Errorf("control mkfs: %w", err)
	}
	if err := writeDeadFiles(cctx, cfs, deadBytes); err != nil {
		return tv, cv, fmt.Errorf("control: %w", err)
	}
	if cv, err = workloads.RunTieredSweep(cctx, cfs, cfg); err != nil {
		return tv, cv, fmt.Errorf("control sweep: %w", err)
	}
	return tv, cv, nil
}

// writeDeadFiles lays down n bytes in 2MiB files that nothing reads again.
func writeDeadFiles(ctx *sim.Ctx, fs *winefs.FS, n int64) error {
	buf := make([]byte, 2<<20)
	for i := 0; int64(i)*int64(len(buf)) < n; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/dead%05d", i))
		if err != nil {
			return fmt.Errorf("dead file %d: %w", i, err)
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			return fmt.Errorf("dead file %d: %w", i, err)
		}
	}
	return nil
}
