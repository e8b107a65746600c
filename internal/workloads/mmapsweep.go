package workloads

import (
	"fmt"

	"repro/internal/geriatrix"
	"repro/internal/mmu"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// MmapSweep is the winebench -mmap workload: build an image (either
// clean-filled with large aligned files, or Geriatrix-aged to the same
// utilisation), carve a benchmark file out of the remaining space, map
// it through internal/vmm, and sweep it with random mapped reads. On the
// unaged image the file's extents tile 2MiB chunks, every fault is a
// hugepage fault and the sweep runs at TLB-hit speed; on the aged image
// the allocator hands back fragments, faults are 4KiB base faults and
// every access pays page-walk traffic — the paper's Figure 1 aging gap,
// measured at the vmm API instead of inside experiments. A write phase
// follows with SyncPeriodic msync batching so the durability counters are
// exercised by the same sweep.

// The sweep's fixed shape.
const (
	// MmapReadSize is bytes per mapped read: one cache line — the paper's
	// random-array-access shape, where translation cost is the whole story.
	MmapReadSize = 64
	// MmapUtil is the image utilisation both conditions reach.
	MmapUtil = 0.6
	// mmapChurnFactor is the Geriatrix churn for the aged condition, the
	// quick-mode setting.
	mmapChurnFactor = 0.5
)

// MmapSweepConfig sizes one sweep.
type MmapSweepConfig struct {
	// FileBytes is the benchmark file size (rounded up to a hugepage
	// multiple).
	FileBytes int64
	// Reads is the number of random mapped reads; the write phase makes a
	// tenth as many writes.
	Reads int
	// Aged selects a Geriatrix-aged image instead of the clean fill.
	Aged bool
	Seed uint64
}

// MmapSweepResult is one sweep's outcome.
type MmapSweepResult struct {
	// SetupNS covers image preparation and the map itself.
	SetupNS int64
	// MapNS is the mmap call alone (fault time is in SweepNS).
	MapNS int64
	// SweepNS is the virtual time of the random-read phase.
	SweepNS int64
	// NSPerRead is SweepNS / Reads.
	NSPerRead float64
	// WriteNS is the write phase's virtual time.
	WriteNS int64
	// HugeChunks/TotalChunks is hugepage coverage over the chunks the
	// sweep faulted (TotalChunks == the file's chunk count once every
	// chunk has been touched).
	HugeChunks  int
	TotalChunks int
	// Reads/ReadBytes echo the work done (baseline-gated exactly).
	Reads     int64
	ReadBytes int64
	// Counters snapshots the measured phases' perf counters (fault mix,
	// TLB traffic, vmm events); setup/aging is excluded.
	Counters perf.Counters
}

// HugeCoverage is HugeChunks/TotalChunks in [0,1].
func (r MmapSweepResult) HugeCoverage() float64 {
	if r.TotalChunks == 0 {
		return 0
	}
	return float64(r.HugeChunks) / float64(r.TotalChunks)
}

// RunMmapSweep prepares the image on fs (which must be freshly made) and
// runs the sweep. ctx drives setup; the measured phases run on a fresh
// bench context advanced past setup so calendar contention from aging
// can't bleed into the numbers (the fig1 methodology).
func RunMmapSweep(ctx *sim.Ctx, fs vfs.FS, cfg MmapSweepConfig) (MmapSweepResult, error) {
	cfg.FileBytes = (cfg.FileBytes + mmu.HugePage - 1) / mmu.HugePage * mmu.HugePage
	var res MmapSweepResult
	setupStart := ctx.Now()

	if cfg.Aged {
		ager := geriatrix.New(fs, geriatrix.Config{
			TargetUtil:  MmapUtil,
			ChurnFactor: mmapChurnFactor,
			Seed:        cfg.Seed + 101,
		})
		if _, err := ager.Run(ctx); err != nil {
			return res, fmt.Errorf("mmapsweep: age: %w", err)
		}
	} else {
		if err := fillAligned(ctx, fs, MmapUtil); err != nil {
			return res, fmt.Errorf("mmapsweep: fill: %w", err)
		}
	}

	f, err := fs.Create(ctx, "/mmap.bench")
	if err != nil {
		return res, err
	}
	if err := f.Fallocate(ctx, 0, cfg.FileBytes); err != nil {
		return res, fmt.Errorf("mmapsweep: fallocate %d bytes at util %.2f: %w", cfg.FileBytes, MmapUtil, err)
	}
	// Prewrite the whole file so every block holds data: file systems
	// that fallocate unwritten extents (ext4-style) would otherwise zero
	// lazily in the fault handler, and that setup cost would pollute the
	// measured sweep on some file systems but not others.
	fill := make([]byte, 1<<20)
	for i := range fill {
		fill[i] = byte(i * 7)
	}
	for off := int64(0); off < cfg.FileBytes; off += int64(len(fill)) {
		if _, err := f.WriteAt(ctx, fill, off); err != nil {
			return res, fmt.Errorf("mmapsweep: prewrite at %d: %w", off, err)
		}
	}
	res.SetupNS = ctx.Now() - setupStart

	// Measured phases on a fresh context past every setup booking.
	bench := sim.NewCtx(97, 0)
	bench.AdvanceTo(ctx.Now())

	mapStart := bench.Now()
	m, err := vmm.Map(bench, f, cfg.FileBytes, vmm.Config{
		Mode:        vmm.ModeShared,
		Sync:        vmm.SyncPeriodic,
		MapFullFile: true,
	})
	if err != nil {
		return res, err
	}
	res.MapNS = bench.Now() - mapStart

	// Random read sweep: cold mapping, so demand faults are part of the
	// per-access price — exactly what differs between the two images.
	rng := sim.NewRand(cfg.Seed + 7)
	buf := make([]byte, MmapReadSize)
	slots := cfg.FileBytes / MmapReadSize
	sweepStart := bench.Now()
	for i := 0; i < cfg.Reads; i++ {
		off := rng.Int63n(slots) * MmapReadSize
		if err := m.Read(bench, buf, off); err != nil {
			return res, fmt.Errorf("mmapsweep: read %d at %d: %w", i, off, err)
		}
		res.Reads++
		res.ReadBytes += MmapReadSize
	}
	res.SweepNS = bench.Now() - sweepStart
	res.NSPerRead = float64(res.SweepNS) / float64(res.Reads)

	writeStart := bench.Now()
	val := make([]byte, MmapReadSize)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < cfg.Reads/10; i++ {
		off := rng.Int63n(slots) * MmapReadSize
		if err := m.Write(bench, val, off); err != nil {
			return res, fmt.Errorf("mmapsweep: write %d: %w", i, err)
		}
	}
	if err := m.Msync(bench, 0, -1); err != nil {
		return res, err
	}
	res.WriteNS = bench.Now() - writeStart

	res.HugeChunks, res.TotalChunks = m.FaultedChunks()
	if err := m.Close(bench); err != nil {
		return res, err
	}
	res.Counters = *bench.Counters
	return res, nil
}

// fillAligned brings utilisation up with hugepage-multiple sequential
// files and no deletes — the unaged condition, under which the allocator
// keeps handing out whole aligned extents.
func fillAligned(ctx *sim.Ctx, fs vfs.FS, util float64) error {
	i := 0
	for {
		st := fs.StatFS(ctx)
		if 1-float64(st.FreeBlocks)/float64(st.TotalBlocks) >= util {
			return nil
		}
		f, err := fs.Create(ctx, fmt.Sprintf("/mfill%05d", i))
		if err != nil {
			return err
		}
		if err := f.Fallocate(ctx, 0, 8<<20); err != nil {
			if err == vfs.ErrNoSpace {
				return nil
			}
			return err
		}
		i++
	}
}
