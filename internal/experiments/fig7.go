package experiments

import (
	"fmt"

	"repro/internal/apps/lmdb"
	"repro/internal/apps/pmemkv"
	"repro/internal/apps/rocksdb"
	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workloads"
)

// fig7App runs one application on an aged file system and files its
// throughput (ops/s) and page faults under its own keys: the throughput
// keys are Figure 7's columns, the fault keys Table 2's.
type fig7App func(cfg Config, fs vfs.FS, opsPerSec map[string]float64, faults map[string]int64) error

// Fig7 reproduces Figure 7 (and collects Table 2): RocksDB under YCSB,
// LMDB under fillseqbatch, and PmemKV under fillseq, each on file systems
// aged to 75% utilisation. Expected shapes: WineFS wins everywhere — up to
// ~2× over NOVA on LMDB and ~70% over ext4-DAX on PmemKV — because only
// WineFS still maps these stores with hugepages; the others take orders of
// magnitude more page faults (Table 2).
//
// One point per file system carries every application's throughput and
// faults, its throughput relative to ext4-DAX (Figure 7) and, on the
// others, its faults as multiples of WineFS's (Table 2) wherever WineFS
// took any.
func Fig7(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	opsPerSec := map[string]map[string]float64{}
	faults := map[string]map[string]int64{}
	for _, name := range agedAppGroup() {
		opsPerSec[name], faults[name] = map[string]float64{}, map[string]int64{}
		for _, app := range []fig7App{fig7YCSB, fig7LMDB, fig7PmemKV} {
			// Each application gets its own freshly aged file system.
			fs, _, ctx, err := cfg.newFS(name)
			if err != nil {
				return err
			}
			if _, err := cfg.age(ctx, fs, 0.75); err != nil {
				return fmt.Errorf("fig7 aging %s: %w", name, err)
			}
			if err := app(cfg, fs, opsPerSec[name], faults[name]); err != nil {
				return fmt.Errorf("fig7 on %s: %w", name, err)
			}
		}
	}
	for _, name := range agedAppGroup() {
		vals := map[string]float64{}
		for app, v := range opsPerSec[name] {
			vals["OpsPerSec."+app] = v
			if base := opsPerSec["ext4-DAX"][app]; base > 0 {
				vals["VsExt4."+app] = v / base
			}
		}
		for app, n := range faults[name] {
			vals["Faults."+app] = float64(n)
			if wf := faults["WineFS"][app]; name != "WineFS" && wf > 0 {
				vals["VsWineFS."+app] = float64(n) / float64(wf)
			}
		}
		rep.Point(labels("fig7", "FS", name), 0).Floats(vals)
	}
	return nil
}

func fig7YCSB(cfg Config, fs vfs.FS, opsPerSec map[string]float64, faults map[string]int64) error {
	ctx := sim.NewCtx(70, 0)
	db, err := rocksdb.Open(ctx, fs, rocksdb.Options{
		MemtableBytes: cfg.scale(1<<20, 4<<20),
	})
	if err != nil {
		return fmt.Errorf("ycsb: %w", err)
	}
	ycfg := workloads.YCSBConfig{Records: cfg.scale(4000, 50000), Seed: cfg.Seed}
	clock := ctx.Now()
	for _, kind := range workloads.AllYCSB() {
		runCtx := sim.NewCtx(71+int(kind), 0)
		runCtx.AdvanceTo(clock)
		r, err := workloads.YCSBRun(runCtx, db, kind, ycfg)
		if err != nil {
			return fmt.Errorf("ycsb: %w", err)
		}
		opsPerSec["ycsb-"+kind.String()] = r.Throughput()
		faults["ycsb-"+kind.String()] = runCtx.Counters.TotalFaults()
		clock = runCtx.Now()
	}
	return nil
}

func fig7LMDB(cfg Config, fs vfs.FS, opsPerSec map[string]float64, faults map[string]int64) error {
	ctx := sim.NewCtx(80, 0)
	// Map size sized to the dataset (sparse: only faulted pages allocate).
	db, err := lmdb.Open(ctx, fs, lmdb.Options{
		MapSize: cfg.scale(64<<20, 512<<20),
		Path:    "/fig7.mdb",
	})
	if err != nil {
		return fmt.Errorf("lmdb: %w", err)
	}
	ops, ns, err := workloads.DBBench(ctx, db, workloads.FillSeqBatch, workloads.DBBenchConfig{
		Records: cfg.scale(4000, 50000), ValueSize: 1024, Seed: cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("lmdb: %w", err)
	}
	opsPerSec["lmdb"], faults["lmdb-fillseqbatch"] = float64(ops)/(float64(ns)/1e9), ctx.Counters.TotalFaults()
	return nil
}

func fig7PmemKV(cfg Config, fs vfs.FS, opsPerSec map[string]float64, faults map[string]int64) error {
	ctx := sim.NewCtx(81, 0)
	db, err := pmemkv.OpenSized(ctx, fs, "/fig7kv", cfg.scale(16<<20, 128<<20))
	if err != nil {
		return fmt.Errorf("pmemkv: %w", err)
	}
	ops, ns, err := workloads.DBBench(ctx, db, workloads.FillSeq, workloads.DBBenchConfig{
		Records: cfg.scale(4000, 30000), ValueSize: 4096, Seed: cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("pmemkv: %w", err)
	}
	opsPerSec["pmemkv"], faults["pmemkv-fillseq"] = float64(ops)/(float64(ns)/1e9), ctx.Counters.TotalFaults()
	return nil
}

var fig7Tables = []bench.Table{{
	Title: "Figure 7: application throughput on aged FSs (relative to ext4-DAX)", Where: labels("fig7"),
	Rows: []string{"FS"}, RowHead: "fs",
	Cols: []bench.Col{
		{Head: "ycsb-A", Field: "VsExt4.ycsb-A", Fmt: "%.2f"},
		{Head: "ycsb-C", Field: "VsExt4.ycsb-C", Fmt: "%.2f"},
		{Head: "ycsb-F", Field: "VsExt4.ycsb-F", Fmt: "%.2f"},
		{Head: "lmdb", Field: "VsExt4.lmdb", Fmt: "%.2f"},
		{Head: "pmemkv", Field: "VsExt4.pmemkv", Fmt: "%.2f"},
	},
}}

// table2Tables prints WineFS's fault counts absolute and every other file
// system's as multiples of them, as the paper's Table 2 does.
var table2Tables = []bench.Table{{
	Title: "Table 2: page faults on aged FSs (WineFS absolute; others ×WineFS)", Where: labels("fig7"),
	Rows: []string{"FS"}, RowHead: "fs",
	Cols: []bench.Col{
		{Head: "ycsb-Load", Field: "VsWineFS.ycsb-Load", Fmt: "%.1fx"},
		{Head: "ycsb-A", Field: "VsWineFS.ycsb-A", Fmt: "%.1fx"},
		{Head: "ycsb-C", Field: "VsWineFS.ycsb-C", Fmt: "%.1fx"},
		{Head: "lmdb-fillseqbatch", Field: "VsWineFS.lmdb-fillseqbatch", Fmt: "%.1fx"},
		{Head: "pmemkv-fillseq", Field: "VsWineFS.pmemkv-fillseq", Fmt: "%.1fx"},
	},
	Else: []bench.Col{
		{Field: "Faults.ycsb-Load"}, {Field: "Faults.ycsb-A"}, {Field: "Faults.ycsb-C"},
		{Field: "Faults.lmdb-fillseqbatch"}, {Field: "Faults.pmemkv-fillseq"},
	},
}}
