package experiments

import (
	"fmt"

	"repro/internal/apps/part"
	"repro/internal/bench"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Fig8 reproduces Figure 8: the latency distribution of P-ART lookups.
// The tree's pool is memory-mapped and pre-faulted; a hot set of keys is
// then looked up in random order. No page faults occur — the separation
// between file systems comes from TLB misses and the LLC pollution of
// page walks, so WineFS (hugepage pool) shows substantially lower median
// latency than the fragmented file systems (paper: 56% lower median, 2×
// fewer TLB misses, far fewer LLC misses).
func Fig8(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	for _, name := range agedAppGroup() {
		h, err := fig8One(cfg, name)
		if err != nil {
			return fmt.Errorf("fig8 %s: %w", name, err)
		}
		packLatency(rep.Point(labels("fig8", "FS", name), 0), h)
	}
	return nil
}

func fig8One(cfg Config, name string) (*perf.Histogram, error) {
	fs, _, ctx, err := cfg.newFS(name)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.age(ctx, fs, 0.75); err != nil {
		return nil, err
	}
	pool := cfg.scale(64<<20, 256<<20)
	tree, err := part.New(ctx, fs, "/part.pool", pool)
	if err != nil {
		return nil, err
	}
	// Insert keys; page tables are set up during inserts (§5.4).
	inserts := cfg.scale(250000, 800000)
	rng := sim.NewRand(cfg.Seed + 33)
	keys := make([]uint64, inserts)
	ictx := sim.NewCtx(90, 0)
	ictx.AdvanceTo(ctx.Now())
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := tree.Insert(ictx, keys[i], uint64(i)); err != nil {
			if err == part.ErrFull {
				keys = keys[:i]
				break
			}
			return nil, err
		}
	}
	// Hot set of 1/160 of the keys (paper: 125K of 60M — scaled ratio is
	// larger to keep the run meaningful), looked up in random order.
	hotN := len(keys) / 12
	if hotN < 64 {
		hotN = len(keys)
	}
	hot := keys[:hotN]
	lookups := int(cfg.scale(60000, 400000))
	lctx := sim.NewCtx(91, 0)
	lctx.AdvanceTo(ictx.Now())
	hist := &perf.Histogram{}
	for i := 0; i < lookups; i++ {
		k := hot[rng.Intn(len(hot))]
		t0 := lctx.Now()
		if _, ok, err := tree.Lookup(lctx, k); err != nil || !ok {
			return nil, fmt.Errorf("lookup miss: %v", err)
		}
		hist.Record(lctx.Now() - t0)
	}
	if lctx.Counters.TotalFaults() != 0 {
		return nil, fmt.Errorf("faults during pre-faulted lookups: %d", lctx.Counters.TotalFaults())
	}
	return hist, nil
}

var fig8Tables = []bench.Table{{
	Title: "Figure 8: P-ART lookup latency (ns), pre-faulted pool", Where: labels("fig8"),
	Rows: []string{"FS"}, RowHead: "fs", Cols: latencyCols,
}}
