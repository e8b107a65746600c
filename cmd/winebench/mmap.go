package main

import (
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The -mmap sweep measures the subsystem the paper motivates in Figure 1:
// mapped reads over an unaged image (extents tile 2MiB chunks, faults are
// hugepage faults) versus the same sweep over a Geriatrix-aged image at
// identical utilisation (fragmented extents, 4KiB base faults, page-walk
// traffic on every access). WineFS and ext4-DAX run both conditions:
// ext4-DAX shows the aging collapse bench.Claims holds it to, WineFS the
// graceful-aging contrast (its aligned/unaligned allocator split keeps
// hugepage coverage high even aged).

// mmapVariant is one {file system, image age} sweep.
type mmapVariant struct {
	FS   string
	Aged bool
	workloads.MmapSweepResult
}

// runMmapBench sweeps the four variants and packs the report.
func runMmapBench(o options) (*bench.Report, error) {
	cfg := workloads.MmapSweepConfig{FileBytes: 32 << 20, Reads: 10000, Seed: o.seed}
	devSize := int64(512 << 20)
	if o.quick {
		cfg.FileBytes = 16 << 20
		cfg.Reads = 5000
		devSize = 256 << 20
	}
	fileMB := int(cfg.FileBytes >> 20)

	var variants []mmapVariant
	for _, fsName := range []string{"WineFS", "ext4-DAX"} {
		for _, aged := range []bool{false, true} {
			res, err := runMmapVariant(fsName, aged, o.cpus, devSize, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s aged=%v: %w", fsName, aged, err)
			}
			variants = append(variants, mmapVariant{fsName, aged, res})
		}
	}
	// ext4-DAX aged NSPerRead / unaged NSPerRead.
	agedSlowdown := 0.0
	if ext4Unaged, ext4Aged := variants[2], variants[3]; ext4Unaged.NSPerRead > 0 {
		agedSlowdown = ext4Aged.NSPerRead / ext4Unaged.NSPerRead
	}

	rep := bench.New("mmap/v1", map[string]float64{
		"FileMB": float64(fileMB), "Reads": float64(cfg.Reads), "ReadSize": workloads.MmapReadSize,
		"Util": workloads.MmapUtil, "CPUs": float64(o.cpus), "Seed": float64(o.seed)})
	for _, v := range variants {
		p := rep.Point(map[string]string{"FS": v.FS, "Aged": strconv.FormatBool(v.Aged)}, 0)
		p.Ints(map[string]int64{"Reads": v.Reads, "ReadBytes": v.ReadBytes,
			"HugeChunks": int64(v.HugeChunks), "TotalChunks": int64(v.TotalChunks),
			"SetupNS": v.SetupNS, "MapNS": v.MapNS, "SweepNS": v.SweepNS, "WriteNS": v.WriteNS})
		p.Floats(map[string]float64{"NSPerRead": v.NSPerRead, "HugeCoverage": v.HugeCoverage()})
		if v.FS == "ext4-DAX" && v.Aged {
			p.Floats(map[string]float64{"AgedSlowdown": agedSlowdown})
		}
		p.AddCounters("Counters.", &v.Counters)
	}
	return rep, nil
}

// mmapTables prints a -mmap report.
func mmapTables(rep *bench.Report) []bench.Table {
	c := rep.Config
	return []bench.Table{{
		Title: fmt.Sprintf("Mapped reads, unaged vs aged at %.0f%% util: %.0fMiB file, %.0f reads x %.0fB",
			100*c["Util"], c["FileMB"], c["Reads"], c["ReadSize"]),
		Rows: []string{"FS", "Aged"}, RowHead: "fs aged",
		Cols: []bench.Col{
			{Head: "read cost", Field: "NSPerRead", Fmt: "%.0fns/read"},
			{Head: "hugepage coverage", Field: "HugeCoverage", Fmt: "%.0f%%", Scale: 100},
			{Head: "huge faults", Field: "Counters.VMMHugeFaults", Fmt: "%.0f"},
			{Head: "base faults", Field: "Counters.VMMBaseFaults", Fmt: "%.0f"},
			{Head: "msync bytes", Field: "Counters.VMMMsyncBytes", Fmt: "%.0fB"},
			{Head: "aged slowdown", Field: "AgedSlowdown", Fmt: "%.1fx"},
		},
	}}
}

// runMmapVariant makes a fresh file system and runs one sweep on it.
func runMmapVariant(fsName string, aged bool, cpus int, devSize int64, cfg workloads.MmapSweepConfig) (workloads.MmapSweepResult, error) {
	maker, ok := fstest.ByName(fsName, cpus)
	if !ok {
		return workloads.MmapSweepResult{}, fmt.Errorf("unknown file system %q", fsName)
	}
	ctx := sim.NewCtx(1, 0)
	fs, err := maker.Make(ctx, pmem.New(devSize))
	if err != nil {
		return workloads.MmapSweepResult{}, err
	}
	cfg.Aged = aged
	return workloads.RunMmapSweep(ctx, fs, cfg)
}
