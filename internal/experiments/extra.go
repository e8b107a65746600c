package experiments

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// RecoveryResult is one point of the §5.2 recovery-time experiment.
type RecoveryResult struct {
	Files      int
	RecoveryNS int64
}

// Recovery reproduces §5.2's crash-recovery measurement: WineFS recovers
// by rolling back uncommitted journal transactions and scanning the
// per-CPU inode tables in parallel, so "the recovery time depends on the
// number of files, and not the total amount of data" (paper: 3.5M files /
// 675GB in 7.8s). We measure virtual recovery time across file counts and
// additionally verify the data-volume independence.
func Recovery(cfg Config) ([]RecoveryResult, error) {
	cfg = cfg.Defaults()
	counts := []int{100, 1000, 5000}
	if cfg.Quick {
		counts = []int{50, 200, 800}
	}
	var out []RecoveryResult
	for _, n := range counts {
		ns, err := recoveryPoint(cfg, n, 16<<10)
		if err != nil {
			return nil, err
		}
		out = append(out, RecoveryResult{Files: n, RecoveryNS: ns})
	}
	return out, nil
}

// RecoveryDataIndependence returns recovery times for the same file count
// at two very different data volumes; they should be close.
func RecoveryDataIndependence(cfg Config) (small, large int64, err error) {
	cfg = cfg.Defaults()
	n := int(cfg.scale(200, 1000))
	small, err = recoveryPoint(cfg, n, 8<<10)
	if err != nil {
		return
	}
	large, err = recoveryPoint(cfg, n, 512<<10)
	return
}

func recoveryPoint(cfg Config, files int, fileSize int64) (int64, error) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(cfg.DeviceSize)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cfg.CPUs})
	if err != nil {
		return 0, err
	}
	for i := 0; i < files; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/r%06d", i))
		if err != nil {
			return 0, err
		}
		if err := f.Fallocate(ctx, 0, fileSize); err != nil {
			return 0, err
		}
	}
	// Crash: no unmount. Mount runs journal recovery + parallel scan.
	rctx := sim.NewCtx(2, 0)
	if _, err := winefs.Mount(rctx, dev, winefs.Options{CPUs: cfg.CPUs}); err != nil {
		return 0, err
	}
	return rctx.Now(), nil
}

// DefragResult reports the §4 defragmentation-interference experiment.
type DefragResult struct {
	// BaselineGBs is foreground mmap read bandwidth alone; WithDefragGBs is
	// the same workload while a defragmentation pass rewrites another file.
	BaselineGBs    float64
	WithDefragGBs  float64
	SlowdownPct    float64
	FilesRewritten int
}

// Defrag reproduces the §4 experiment (workloads.RunInterference) with
// WineFS's reactive-rewrite background thread as the rewriter, competing
// for device bandwidth with a foreground mmap reader in virtual time.
func Defrag(cfg Config) (*DefragResult, error) {
	cfg = cfg.Defaults()
	fs, _, ctx, err := cfg.newFS("WineFS")
	if err != nil {
		return nil, err
	}
	res := &DefragResult{}
	r, err := workloads.RunInterference(ctx, fs, cfg.CPUs, cfg.scale(16<<20, 64<<20), cfg.scale(32<<20, 160<<20),
		func(bg *sim.Ctx) error {
			res.FilesRewritten = fs.(*winefs.FS).RunRewriter(bg)
			return nil
		})
	if err != nil {
		return nil, err
	}
	res.BaselineGBs, res.WithDefragGBs, res.SlowdownPct = r.BaselineBW, r.ContendedBW, r.SlowdownPct
	return res, nil
}

// HPCResult reports the §4 Wang-HPC-profile comparison.
type HPCResult struct {
	// AlignedFreeFraction at 50% utilisation per FS.
	Ext4   float64
	WineFS float64
}

// HPC reproduces the §4 observation: under an HPC aging profile at only
// 50% utilisation, "only 28% of the free-space is aligned and unfragmented
// in ext4-DAX, while more than 90% ... in WineFS".
func HPC(cfg Config) (*HPCResult, error) {
	cfg = cfg.Defaults()
	frac := func(name string) (float64, error) {
		fs, _, ctx, err := cfg.newFS(name)
		if err != nil {
			return 0, err
		}
		churn := 8.0
		if cfg.Quick {
			churn = 6
		}
		ager := geriatrix.New(fs, geriatrix.Config{
			TargetUtil:  0.5,
			ChurnFactor: churn,
			Profile:     geriatrix.WangHPC(),
			Seed:        cfg.Seed + 55,
		})
		if _, err := ager.Run(ctx); err != nil {
			return 0, err
		}
		return alloc.AlignedFreeFraction(fs.FreeExtents()), nil
	}
	e, err := frac("ext4-DAX")
	if err != nil {
		return nil, err
	}
	w, err := frac("WineFS")
	if err != nil {
		return nil, err
	}
	return &HPCResult{Ext4: e, WineFS: w}, nil
}

// NUMAResult reports the §3.6 NUMA-awareness experiment.
type NUMAResult struct {
	// RemoteWriteFrac is the fraction of written bytes that landed on a
	// remote NUMA node, with the policy off and on.
	RemoteFracOff float64
	RemoteFracOn  float64
	// WriteNSOff/On are the per-thread virtual times for the write phase.
	WriteNSOff int64
	WriteNSOn  int64
}

// NUMA validates §3.6's "minimizing remote NUMA accesses" design: with the
// home-node policy on, every thread's allocations (and therefore writes)
// land on its home node, eliminating remote writes; with it off, threads
// allocate wherever their current CPU's pool happens to live.
func NUMA(cfg Config) (*NUMAResult, error) {
	cfg = cfg.Defaults()
	res := &NUMAResult{}
	run := func(aware bool) (float64, int64, error) {
		dev := pmem.NewWithConfig(pmem.Config{Size: cfg.DeviceSize, Nodes: 2, CPUs: cfg.CPUs})
		ctx := sim.NewCtx(1, 0)
		fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cfg.CPUs, NUMAAware: aware})
		if err != nil {
			return 0, 0, err
		}
		// One writer thread that the scheduler has placed on a node-1 CPU
		// while most free space is on node 0: without the policy its writes
		// go to its local pool's node; with it, the FS routes to the home
		// node chosen by free space. To create the imbalance, fill most of
		// node 1's pools first.
		filler := sim.NewCtx(2, cfg.CPUs-1)
		ff, err := fs.Create(filler, "/fill")
		if err != nil {
			return 0, 0, err
		}
		if err := ff.Fallocate(filler, 0, cfg.DeviceSize/4); err != nil {
			return 0, 0, err
		}

		w := sim.NewCtx(3, cfg.CPUs-1) // runs on a node-1 CPU
		w.AdvanceTo(filler.Now())
		f, err := fs.Create(w, "/data")
		if err != nil {
			return 0, 0, err
		}
		start := w.Now()
		total := cfg.scale(16<<20, 64<<20)
		chunk := make([]byte, 1<<20)
		var remoteBytes int64
		for off := int64(0); off < total; off += int64(len(chunk)) {
			if _, err := f.WriteAt(w, chunk, off); err != nil {
				return 0, 0, err
			}
		}
		for _, e := range f.Extents() {
			if dev.NodeOf(e.Phys) != dev.NodeOfCPU(w.CPU) {
				remoteBytes += e.Len
			}
		}
		return float64(remoteBytes) / float64(total), w.Now() - start, nil
	}
	var err error
	res.RemoteFracOff, res.WriteNSOff, err = run(false)
	if err != nil {
		return nil, err
	}
	res.RemoteFracOn, res.WriteNSOn, err = run(true)
	if err != nil {
		return nil, err
	}
	return res, nil
}
