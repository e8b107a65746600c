package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/crashmonkey"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// Recovery reproduces §5.2's crash-recovery measurement: WineFS recovers
// by rolling back uncommitted journal transactions and scanning the
// per-CPU inode tables in parallel, so "the recovery time depends on the
// number of files, and not the total amount of data" (paper: 3.5M files /
// 675GB in 7.8s). We measure virtual recovery time across file counts and
// then for one file count at two very different data volumes, which
// should recover in close to the same time.
func Recovery(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	counts := []int{100, 1000, 5000}
	if cfg.Quick {
		counts = []int{50, 200, 800}
	}
	for _, n := range counts {
		ns, err := recoveryPoint(cfg, n, 16<<10)
		if err != nil {
			return err
		}
		rep.Point(labels("recovery", "Files", strconv.Itoa(n)), 0).Ints(map[string]int64{"RecoveryNS": ns})
	}
	n := int(cfg.scale(200, 1000))
	small, err := recoveryPoint(cfg, n, 8<<10)
	if err != nil {
		return err
	}
	large, err := recoveryPoint(cfg, n, 512<<10)
	if err != nil {
		return err
	}
	rep.Point(labels("recovery", "Files", "(same files, 64x data)"), 0).Ints(map[string]int64{"SmallNS": small, "LargeNS": large})
	return nil
}

var recoveryTables = []bench.Table{{
	Title: "§5.2: crash-recovery time vs file count (virtual time)", Where: labels("recovery"),
	Rows: []string{"Files"}, RowHead: "files",
	Cols: []bench.Col{{Head: "recovery", Field: "RecoveryNS", Fmt: "%.2fms", Scale: 1e-6}},
	Else: []bench.Col{{Field: "SmallNS,LargeNS", Fmt: "%.2fms vs %.2fms", Scale: 1e-6}},
}}

func recoveryPoint(cfg Config, files int, fileSize int64) (int64, error) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(cfg.deviceSize())
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
	if _, err := winefs.Mount(rctx, dev, winefs.Options{}); err != nil {
		return 0, err
	}
	return rctx.Now(), nil
}

// HPC reproduces the §4 observation: under an HPC aging profile at only
// 50% utilisation, "only 28% of the free-space is aligned and unfragmented
// in ext4-DAX, while more than 90% ... in WineFS".
func HPC(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	for _, name := range []string{"ext4-DAX", "WineFS"} {
		fs, _, ctx, err := cfg.newFS(name)
		if err != nil {
			return err
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
			return err
		}
		rep.Point(labels("hpc", "FS", name), 0).Floats(map[string]float64{"AlignedFree": alloc.AlignedFreeFraction(fs.FreeExtents())})
	}
	return nil
}

var hpcTables = []bench.Table{{
	Title: "§4: Wang-HPC profile, aligned free space at 50% utilisation", Where: labels("hpc"),
	Rows: []string{"FS"}, RowHead: "fs",
	Cols: []bench.Col{{Head: "aligned free %", Field: "AlignedFree", Fmt: "%.0f%%", Scale: 100}},
}}

// NUMA validates §3.6's "minimizing remote NUMA accesses" design: with the
// home-node policy on, every thread's allocations (and therefore writes)
// land on its home node, eliminating remote writes; with it off, threads
// allocate wherever their current CPU's pool happens to live. Each policy
// reports the fraction of written bytes that landed on a remote node and
// the writer's virtual time.
func NUMA(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	run := func(aware bool) (float64, int64, error) {
		dev := pmem.NewWithConfig(pmem.Config{Size: cfg.deviceSize(), Nodes: 2, CPUs: cfg.CPUs})
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
		if err := ff.Fallocate(filler, 0, cfg.deviceSize()/4); err != nil {
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
	for _, policy := range []string{"off", "on"} {
		remote, ns, err := run(policy == "on")
		if err != nil {
			return err
		}
		rep.Point(labels("numa", "Policy", policy), 0).Floats(map[string]float64{"RemoteFrac": remote, "WriteNS": float64(ns)})
	}
	return nil
}

var numaTables = []bench.Table{{
	Title: "§3.6: NUMA home-node policy (writer on a remote-heavy CPU)", Where: labels("numa"),
	Rows: []string{"Policy"}, RowHead: "policy",
	Cols: []bench.Col{
		{Head: "remote-write fraction", Field: "RemoteFrac", Fmt: "%.0f%%", Scale: 100},
		{Head: "write time", Field: "WriteNS", Fmt: "%.2fms", Scale: 1e-6},
	},
}}

// The journal arm runs Figure 10's workload at ablationThreads threads of
// ablationOps operations each, in quick and full mode alike: at Figure
// 10's full 300 operations a thread the per-CPU throughput is bimodal run
// to run (1.3 or 2.0 Mops/s on a 2-core host), at 100 it repeats within
// 10%.
const ablationThreads, ablationOps = 8, 100

// Ablation turns off, one at a time, the two design choices §3.4 rests
// on. Without the aligned-extent pool (winefs Options.AblateAlignment) an
// aged strict WineFS keeps far less of its free space in aligned 2MiB
// regions; with every transaction routed through one journal
// (AblateSingleJournal), Figure 10's metadata workload on
// ablationThreads threads queues behind it. The journal arm's threads
// interleave in host order, so its throughput is Info, as Figure 10's is.
func Ablation(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	for _, v := range []string{"aligned pool", "no aligned pool"} {
		ctx := sim.NewCtx(1, 0)
		fs, err := winefs.Mkfs(ctx, pmem.New(cfg.deviceSize()), winefs.Options{
			CPUs: cfg.CPUs, Mode: vfs.Strict, AblateAlignment: v == "no aligned pool"})
		if err != nil {
			return err
		}
		if _, err := cfg.age(ctx, fs, 0.7); err != nil {
			return fmt.Errorf("ablation %s: %w", v, err)
		}
		rep.Point(labels("ablation", "Variant", v), 0).
			Floats(map[string]float64{"AlignedFreePct": alloc.AlignedFreeFraction(fs.FreeExtents()) * 100})
	}
	// As in Figure 10, the machine has a logical CPU per thread.
	for _, v := range []string{"per-CPU journals", "single journal"} {
		fs, err := winefs.Mkfs(sim.NewCtx(1, 0), pmem.New(cfg.deviceSize()), winefs.Options{
			CPUs: max(cfg.CPUs, ablationThreads), Mode: vfs.Strict, AblateSingleJournal: v == "single journal"})
		if err != nil {
			return err
		}
		tput, err := workloads.Scalability(fs, workloads.ScalabilityConfig{
			Threads:      ablationThreads,
			OpsPerThread: ablationOps,
		})
		if err != nil {
			return fmt.Errorf("ablation %s: %w", v, err)
		}
		rep.Point(labels("ablation", "Variant", v), ablationThreads).Floats(map[string]float64{"ContendedKIOPS": tput / 1000})
	}
	return nil
}

var ablationTables = []bench.Table{{
	Title: "§3.4 ablation: aligned free space (%) of strict WineFS aged to 70%",
	Where: labels("ablation", "Variant", "aligned pool|no aligned pool"),
	Rows:  []string{"Variant"}, RowHead: "WineFS",
	Cols: []bench.Col{{Head: "aligned free %", Field: "AlignedFreePct", Fmt: "%.1f"}},
}, {
	Title: fmt.Sprintf("§3.4 ablation: Figure 10's workload at %d threads (kIOPS)", ablationThreads),
	Where: labels("ablation", "Variant", "per-CPU journals|single journal"),
	Rows:  []string{"Variant"}, RowHead: "WineFS",
	Cols: []bench.Col{{Head: "kIOPS", Field: "ContendedKIOPS", Fmt: "%.0f"}},
}}

// CrashMonkey explores the crash states of every ACE Seq-1 and Seq-2
// workload in both consistency modes (§5.2). Any failure fails the run,
// after the counts are packed.
func CrashMonkey(cfg Config, rep *bench.Report) error {
	states := 0
	var failures []string
	for _, mode := range []vfs.ConsistencyMode{vfs.Relaxed, vfs.Strict} {
		for _, w := range append(crashmonkey.GenerateSeq1(), crashmonkey.GenerateSeq2()...) {
			w.Mode = mode
			res := crashmonkey.Run(w, crashmonkey.Config{Seed: cfg.Seed})
			states += res.CrashStates
			for _, f := range res.Failures {
				failures = append(failures, fmt.Sprintf("%s (mode %d): %s", w.Name, mode, f))
			}
		}
	}
	rep.Point(labels("crashmonkey"), 0).Ints(map[string]int64{"CrashStates": int64(states), "Failures": int64(len(failures))})
	if len(failures) > 0 {
		return fmt.Errorf("%d failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

var crashMonkeyTables = []bench.Table{{
	Title: "§5.2: CrashMonkey", Where: labels("crashmonkey"),
	Cols: []bench.Col{
		{Head: "crash states explored", Field: "CrashStates", Fmt: "%.0f"},
		{Head: "failures", Field: "Failures", Fmt: "%.0f"},
	},
}}
