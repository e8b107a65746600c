package experiments

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig9 reproduces Figure 9 on newly created file systems (§5.5: "aging
// does not impact system call performance on PM. We therefore use newly
// created file systems"): per file system, throughput for the four
// Filebench personalities, pgbench TPC-B read-write and WiredTiger
// fill/read, on names (nil: RelaxedGroup then StrictGroup). Expected
// shapes: WineFS ≥ the best baseline everywhere; ext4/xfs suffer on
// varmail (costly fsync); NOVA loses ~15% on pgbench overwrites and ~60%
// on WiredTiger's unaligned appends.
//
// Filebench and pgbench run cfg.CPUs threads whose bookings interleave in
// host order, so their throughputs are Info; WiredTiger runs on one
// thread and repeats.
func Fig9(cfg Config, rep *bench.Report, names []string) error {
	cfg = cfg.Defaults()
	if names == nil {
		names = append(append([]string{}, RelaxedGroup()...), StrictGroup()...)
	}
	for _, name := range names {
		vals := map[string]float64{}
		for _, p := range workloads.AllPersonalities() {
			fs, _, ctx, err := cfg.newFS(name)
			if err != nil {
				return err
			}
			r, err := workloads.Filebench(ctx, fs, p, workloads.FilebenchConfig{
				Threads:      cfg.CPUs, // paper: thread count ≤ core count
				Files:        int(cfg.scale(300, 2000)),
				OpsPerThread: int(cfg.scale(30, 200)),
				Seed:         cfg.Seed,
			})
			if err != nil {
				return fmt.Errorf("fig9 %s %s: %w", name, p, err)
			}
			vals["Filebench."+p.String()] = r.Throughput()
		}

		fs, _, ctx, err := cfg.newFS(name)
		if err != nil {
			return err
		}
		pg, err := workloads.Pgbench(ctx, fs, workloads.PgbenchConfig{
			Threads:       cfg.CPUs,
			DatabaseBytes: cfg.scale(32<<20, 256<<20),
			TxPerThread:   int(cfg.scale(40, 300)),
			Seed:          cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("fig9 %s pgbench: %w", name, err)
		}
		vals["PgbenchTPS"] = pg.TPS()

		fs, _, _, err = cfg.newFS(name)
		if err != nil {
			return err
		}
		wctx := sim.NewCtx(95, 0)
		wcfg := workloads.WiredTigerConfig{Records: cfg.scale(3000, 20000), Seed: cfg.Seed}
		ops, ns, offsets, err := workloads.WiredTigerFill(wctx, fs, wcfg)
		if err != nil {
			return fmt.Errorf("fig9 %s wt fill: %w", name, err)
		}
		vals["WTFill"] = float64(ops) / (float64(ns) / 1e9)
		rops, rns, err := workloads.WiredTigerRead(wctx, fs, wcfg, offsets)
		if err != nil {
			return fmt.Errorf("fig9 %s wt read: %w", name, err)
		}
		vals["WTRead"] = float64(rops) / (float64(rns) / 1e9)
		mode := "strict"
		if slices.Contains(RelaxedGroup(), name) {
			mode = "relaxed"
		}
		rep.Point(labels("fig9", "Mode", mode, "FS", name), 0).Floats(vals)
	}
	return nil
}

var fig9Cols = []bench.Col{
	{Head: "varmail", Field: "Filebench.varmail"},
	{Head: "fileserver", Field: "Filebench.fileserver"},
	{Head: "webserver", Field: "Filebench.webserver"},
	{Head: "webproxy", Field: "Filebench.webproxy"},
	{Head: "pgbench-TPS", Field: "PgbenchTPS"},
	{Head: "wt-fill", Field: "WTFill"},
	{Head: "wt-read", Field: "WTRead"},
}

var fig9Tables = []bench.Table{
	{Title: "Figure 9(a-c): POSIX applications, metadata consistency (clean FS)", Where: labels("fig9", "Mode", "relaxed"),
		Rows: []string{"FS"}, RowHead: "fs", Cols: fig9Cols},
	{Title: "Figure 9(d-f): POSIX applications, data+metadata consistency (clean FS)", Where: labels("fig9", "Mode", "strict"),
		Rows: []string{"FS"}, RowHead: "fs", Cols: fig9Cols},
}
