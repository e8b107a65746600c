package workloads

import (
	"repro/internal/defrag"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// Interference is the outcome of RunInterference: the foreground's mapped
// read bandwidth (bytes per virtual ns) alone and beside the defragmenter,
// the loss in percent, and the defragmenter's work.
type Interference struct {
	BaselineBW  float64
	ContendedBW float64
	SlowdownPct float64

	Rewrites       int
	MigratedBlocks int64
}

// RunInterference is the §4 experiment: "we read a fragmented 5GB file and
// rewrote it with aligned extents. In parallel, we also ran a foreground
// workload that performed memory-mapped reads on another file. We observed
// a slowdown of 25-40%". On fs, freshly made under ctx, it builds an
// aligned, mapped, pre-faulted foreground file of fgSize and a victim of
// vicSize fragmented by small writes (mapping it queues the reactive
// rewrite), measures three mapped sweeps of the foreground alone, then runs
// one pass of the online defragmenter at duty cycle budget (1 =
// unthrottled) on its own context — thread 101 on the last of cpus CPUs —
// and measures the same sweeps again over the same virtual-time window.
func RunInterference(ctx *sim.Ctx, fs *winefs.FS, cpus int, fgSize, vicSize int64, budget float64) (Interference, error) {
	var res Interference
	// Foreground file: aligned, mapped, pre-faulted.
	fg, err := fs.Create(ctx, "/foreground")
	if err != nil {
		return res, err
	}
	if err := fg.Fallocate(ctx, 0, fgSize); err != nil {
		return res, err
	}
	// File.Mmap, not vmm.Map: the mapping lives as long as the file, and a
	// vmm mapping would add promote-hook work that moves BENCH_defrag.json.
	fgMap, err := fg.Mmap(ctx, fgSize)
	if err != nil {
		return res, err
	}
	if err := fgMap.Prefault(ctx); err != nil {
		return res, err
	}

	// Victim file: fragmented (built from small writes), large.
	vic, err := fs.Create(ctx, "/victim")
	if err != nil {
		return res, err
	}
	chunk := make([]byte, 64<<10)
	for off := int64(0); off < vicSize; off += int64(len(chunk)) {
		if _, err := vic.WriteAt(ctx, chunk, off); err != nil {
			return res, err
		}
	}
	if _, err := vic.Mmap(ctx, vicSize); err != nil { // queues the rewrite
		return res, err
	}

	read := func(c *sim.Ctx) (float64, error) {
		start := c.Now()
		passes := int64(3)
		for p := int64(0); p < passes; p++ {
			if err := fgMap.Touch(c, 0, fgSize, false); err != nil {
				return 0, err
			}
		}
		return float64(fgSize*passes) / float64(c.Now()-start), nil
	}

	// Baseline: foreground alone, starting after every setup booking.
	bctx := sim.NewCtx(100, 0)
	bctx.AdvanceTo(ctx.Now())
	if res.BaselineBW, err = read(bctx); err != nil {
		return res, err
	}

	// Contended: the background thread and the foreground reads share the
	// same virtual-time window, starting together. The background's
	// device-port occupations are booked first; the foreground reads then
	// weave into the remaining gaps — i.e. the background work steals
	// bandwidth from the foreground, as in §4: unthrottled those gaps are
	// the 25-40% loss, paced they are bounded by the duty cycle.
	bg := sim.NewCtx(101, cpus-1)
	bg.AdvanceTo(bctx.Now())
	st, err := defrag.New(fs, defrag.Config{Budget: budget, MaxPasses: 1}).Run(bg)
	if err != nil {
		return res, err
	}
	res.Rewrites, res.MigratedBlocks = st.Rewrites, st.MigratedBlocks
	fgc := sim.NewCtx(102, 0)
	fgc.AdvanceTo(bctx.Now())
	if res.ContendedBW, err = read(fgc); err != nil {
		return res, err
	}
	if res.BaselineBW > 0 {
		res.SlowdownPct = (1 - res.ContendedBW/res.BaselineBW) * 100
	}
	return res, nil
}
