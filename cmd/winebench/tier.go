package main

import (
	"fmt"
	"os"
	"slices"
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
// ratio instead of collapsing to raw SSD speed — the gate below holds the
// 2x point to at least a quarter of the all-PM control.

// tierMinDegradedRatio gates tiered/control throughput for every
// working set at or past PM capacity, 2x included.
const tierMinDegradedRatio = 0.25

// tierAgedDead is the aged point's pre-fill, in multiples of PM: files
// written once and never read, laid down before the working set so they
// hold PM when the sweep starts. The point runs the 1.5x working set and
// is gated against the plain 1.5x point: data nobody reads must give its
// PM up to the data the sweep reads (DESIGN §14, usage.dead).
const tierAgedDead = 0.5

// tierAgedWarmup is the aged point's warm-up, in multiples of the sweep:
// long enough for the migration passes to finish trading dead data for
// data the sweep reads before anything is measured.
const tierAgedWarmup = 4

// tierMinAgedShare is the share of the plain 1.5x point's ratio the aged
// 1.5x point must keep.
const tierMinAgedShare = 0.9

// tierMinFitRatio gates the working sets that fit in PM (<1x): tiering
// machinery that slows the fitting case down materially is a bug. The
// exactly-1x point is NOT held to this: a working set equal to the PM
// data capacity cannot be fully PM-resident under the water-mark policy
// (the high-low band keeps ~20%% of PM as spill headroom by design), so
// 1x is judged as the first degraded point instead.
const tierMinFitRatio = 0.75

// runTierBench sweeps the working-set fractions, packs and prints the
// report and enforces the gates. In each point
// SetupCounters covers laying out the working set (allocation spill lives
// here), Counters the measured sweep thread (cold-miss slow-device
// traffic, faults) and MigrCounters the background migration thread
// (demotions/promotions and their copy traffic).
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
	rep.Print(os.Stdout, bench.Table{
		Title: fmt.Sprintf("Tiered PM+SSD vs all-in-PM: 90/10 hotspot, %d ops x %dB, %d%% reads, PM %dMiB + slow %dMiB",
			cfg.Ops, workloads.TieredOpSize, int(100*workloads.TieredReadFrac), devSize>>20, slowSize>>20),
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
	})
	// Gates. The 2x point is the headline: PM completely full, half the
	// working set cold on the SSD tier, and the zipfian hot head still has
	// to be served at PM speed.
	for i, frac := range fracs {
		tv, ratio := &tiered[i], ratios[i]
		if frac < 1.0 && ratio < tierMinFitRatio {
			return nil, fmt.Errorf("working set %.1fx PM fits, but tiered throughput is %.0f%% of all-PM (want >= %.0f%%)",
				frac, 100*ratio, 100*tierMinFitRatio)
		}
		if frac >= 1.0 && ratio < tierMinDegradedRatio {
			return nil, fmt.Errorf("graceful degradation gate: at %.1fx PM tiered throughput is %.0f%% of all-PM (want >= %.0f%%)",
				frac, 100*ratio, 100*tierMinDegradedRatio)
		}
		if frac >= 2.0 && tv.SetupCounters.AllocSpillBlocks == 0 {
			return nil, fmt.Errorf("at %.1fx PM no allocation spilled to the slow tier", frac)
		}
		if frac > 1.0 {
			if tv.Counters.SlowReadBytes == 0 {
				return nil, fmt.Errorf("at %.1fx PM the sweep never read the slow tier (cold misses uncharged?)", frac)
			}
			// Every slow-tier read advances the accessing thread's clock by
			// at least the device's command latency, so the sweep time must
			// cover SlowReads * ReadLatNS — the "cold reads really pay
			// slow-tier costs" invariant.
			if minNS := tv.Counters.SlowReads * tier.ReadLatNS; tv.SweepNS < minNS {
				return nil, fmt.Errorf("at %.1fx PM sweep took %dns but %d slow reads cost at least %dns — slow tier undercharged",
					frac, tv.SweepNS, tv.Counters.SlowReads, minNS)
			}
		}
		if deads[i] > 0 {
			if plain := ratios[slices.Index(fracs, frac)]; ratio < tierMinAgedShare*plain {
				return nil, fmt.Errorf("aged gate: at %.1fx PM behind %.1fx of dead data tiered throughput is %.0f%% of all-PM, the plain point's %.0f%% (want >= %.0f%% of it)",
					frac, deads[i], 100*ratio, 100*plain, 100*tierMinAgedShare)
			}
		}
	}
	return rep, nil
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
