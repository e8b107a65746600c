package experiments

import (
	"repro/internal/bench"
	"repro/internal/mmu"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
)

// Fig4 reproduces Figure 4: the latency CDF of random reads from a large,
// memory-mapped, *pre-faulted* PM array, with 2MiB vs 4KiB pages. No page
// faults occur; the difference is pure TLB reach and the LLC pollution of
// page-table walks — the paper reports ~10× higher median latency with
// base pages because the read element "has been knocked out of the
// processor cache by page table entries".
func Fig4(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	// Scale the array and LLC together: the paper's machine pairs a ~38MiB
	// LLC with a multi-GiB array; we pair the model's 8MiB LLC with a
	// 256MiB array and a hot set sized at half the LLC.
	model := pmem.DefaultModel()
	arr := cfg.scale(64<<20, 256<<20)
	dev := pmem.NewWithConfig(pmem.Config{Size: arr * 2, Model: &model})
	as := mmu.NewAddressSpace(dev)

	reads := int(cfg.scale(40000, 400000))
	hotLines := int(model.LLCBytes / pmem.CacheLine / 2)

	run := func(aligned bool, hist *perf.Histogram) error {
		phys := arr / 2
		if !aligned {
			phys += mmu.BasePage
		}
		h := &staticHandler{extents: []mmu.Extent{{FileOff: 0, Phys: phys, Len: arr}}}
		m := as.NewMapping(arr, h)
		ctx := sim.NewCtx(1, 0)
		if err := m.Prefault(ctx); err != nil {
			return err
		}
		as.FlushTLB()
		as.FlushCache()
		rng := sim.NewRand(cfg.Seed + 9)
		// Hot set of addresses (the paper reads a hot array region whose
		// data would fit in cache were it not for PTE pollution).
		hot := make([]int64, hotLines)
		for i := range hot {
			hot[i] = rng.Int63n(arr/64) * 64
		}
		buf := make([]byte, 8)
		// Warm pass.
		for _, off := range hot {
			if err := m.Read(ctx, buf, off); err != nil {
				return err
			}
		}
		for i := 0; i < reads; i++ {
			off := hot[rng.Intn(len(hot))]
			t0 := ctx.Now()
			if err := m.Read(ctx, buf, off); err != nil {
				return err
			}
			hist.Record(ctx.Now() - t0)
		}
		return nil
	}
	var huge, base perf.Histogram
	if err := run(true, &huge); err != nil {
		return err
	}
	if err := run(false, &base); err != nil {
		return err
	}
	packLatency(rep.Point(labels("fig4", "Pages", "2MB-pages"), 0), &huge)
	packLatency(rep.Point(labels("fig4", "Pages", "4KB-pages"), 0), &base)
	if huge.Median() > 0 {
		rep.Point(labels("fig4", "Pages", "ratio"), 0).
			Floats(map[string]float64{"MedianRatio": float64(base.Median()) / float64(huge.Median())})
	}
	return nil
}

var fig4Tables = []bench.Table{{
	Title: "Figure 4: pre-faulted random-read latency (ns)", Where: labels("fig4"),
	Rows: []string{"Pages"}, RowHead: "pages", Cols: latencyCols,
	Else: []bench.Col{{Field: "MedianRatio", Fmt: "%.1fx"}},
}}
