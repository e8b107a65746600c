package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// Fig1 reproduces Figure 1: write bandwidth to memory-mapped files on
// un-aged (left) and aged (right) file systems, as capacity utilisation
// rises. The paper's result: ext4-DAX and NOVA lose ~50% of bandwidth by
// 60% utilisation when aged; WineFS holds its bandwidth to 90%.
//
// Method (§5.1, §5.3): a partition is brought to each utilisation level —
// by plain filling (un-aged) or by Geriatrix create/delete churn (aged) —
// then a large file is created, memory-mapped, and written sequentially
// with memcpy; bandwidth = bytes / virtual time.
func Fig1(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	for _, name := range []string{"ext4-DAX", "NOVA", "WineFS"} {
		for _, util := range []float64{0.0, 0.30, 0.60, 0.90} {
			for _, aged := range []bool{false, true} {
				bw, err := fig1Point(cfg, name, util, aged)
				if err != nil {
					return fmt.Errorf("fig1 %s aged=%v %.0f%%: %w", name, aged, util*100, err)
				}
				rep.Point(labels("fig1", "Aged", strconv.FormatBool(aged), "FS", name, "Util", fmt.Sprintf("%g", util*100)), 0).
					Floats(map[string]float64{"GBs": bw})
			}
		}
	}
	return nil
}

var fig1Tables = []bench.Table{
	{Title: "Figure 1(a): un-aged mmap write bandwidth (GB/s) vs utilisation (%)", Where: labels("fig1", "Aged", "false"),
		Rows: []string{"Util"}, RowHead: "util%", Pivot: "FS", Cols: []bench.Col{{Field: "GBs", Fmt: "%.2f"}}},
	{Title: "Figure 1(b): aged mmap write bandwidth (GB/s) vs utilisation (%)", Where: labels("fig1", "Aged", "true"),
		Rows: []string{"Util"}, RowHead: "util%", Pivot: "FS", Cols: []bench.Col{{Field: "GBs", Fmt: "%.2f"}}},
}

// fig1Point measures mmap write bandwidth (GB/s) at one utilisation level.
func fig1Point(cfg Config, name string, util float64, age bool) (float64, error) {
	fs, _, ctx, err := cfg.newFS(name)
	if err != nil {
		return 0, err
	}
	if util > 0 {
		if age {
			if _, err := cfg.age(ctx, fs, util); err != nil {
				return 0, err
			}
		} else {
			if err := fillClean(ctx, fs, util); err != nil {
				return 0, err
			}
		}
	}
	// The benchmark file: large enough to exercise many hugepage chunks
	// but small enough to fit the remaining space.
	st := fs.StatFS(ctx)
	size := cfg.scale(32<<20, 128<<20)
	if free := st.FreeBlocks * 4096 / 2; size > free {
		size = free / (2 << 20) * (2 << 20)
	}
	if size < 4<<20 {
		return 0, fmt.Errorf("no room for benchmark file at util %.2f", util)
	}
	f, err := fs.Create(ctx, "/bench.mmap")
	if err != nil {
		return 0, err
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		return 0, err
	}
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		return 0, err
	}
	// Measurement begins after every setup booking on the device port: a
	// fresh context at virtual time 0 would spuriously contend with the
	// aging/fill phase's calendar entries.
	bench := sim.NewCtx(99, 0)
	bench.AdvanceTo(ctx.Now())
	start := bench.Now()
	if err := m.Touch(bench, 0, size, true); err != nil {
		return 0, err
	}
	if bench.Now() == start {
		return 0, fmt.Errorf("zero-time write")
	}
	return float64(size) / float64(bench.Now()-start), nil // bytes/ns == GB/s
}

// fillClean brings utilisation up with large sequential files and no
// deletes — the "new file system" condition of Figure 1(a).
func fillClean(ctx *sim.Ctx, fs vfs.FS, util float64) error {
	st := fs.StatFS(ctx)
	total := st.TotalBlocks * 4096
	const fileSize = 16 << 20
	i := 0
	for {
		st = fs.StatFS(ctx)
		if 1-float64(st.FreeBlocks)/float64(st.TotalBlocks) >= util {
			return nil
		}
		f, err := fs.Create(ctx, fmt.Sprintf("/fill%05d", i))
		if err != nil {
			return err
		}
		size := int64(fileSize)
		if size > total/50 {
			size = total / 50
		}
		// Whole hugepage multiples: the un-aged condition fills with large
		// files whose extents tile exactly.
		size = size / (2 << 20) * (2 << 20)
		if size == 0 {
			size = 2 << 20
		}
		if err := f.Fallocate(ctx, 0, size); err != nil {
			if err == vfs.ErrNoSpace {
				return nil
			}
			return err
		}
		i++
	}
}
