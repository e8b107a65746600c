package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/workloads"
)

// Fig10 reproduces Figure 10: throughput of the create/append-4KiB/fsync/
// unlink microbenchmark as the thread count grows, per file system.
// Expected shapes: WineFS and NOVA scale best (per-CPU journals / per-inode
// logs); PMFS scales reasonably (fine-grained single journal); ext4-DAX,
// xfs-DAX and SplitFS plateau early (stop-the-world JBD2 commit on fsync).
//
// Only the one-thread throughput repeats run to run; above one thread the
// threads' bookings interleave in host order, so those points are Info.
func Fig10(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	threads := []int{1, 2, 4, 8, 16}
	names := []string{"ext4-DAX", "xfs-DAX", "PMFS", "NOVA", "SplitFS", "WineFS"}
	// The machine has (at least) as many logical CPUs as the largest thread
	// count; per-CPU designs get one journal/pool per logical CPU (§5.1).
	machineCfg := cfg
	if machineCfg.CPUs < 16 {
		machineCfg.CPUs = 16
	}
	for _, name := range names {
		for _, th := range threads {
			fs, _, _, err := machineCfg.newFS(name)
			if err != nil {
				return err
			}
			tput, err := workloads.Scalability(fs, workloads.ScalabilityConfig{
				Threads:      th,
				OpsPerThread: int(cfg.scale(50, 300)),
			})
			if err != nil {
				return fmt.Errorf("fig10 %s %d threads: %w", name, th, err)
			}
			field := "KIOPS"
			if th > 1 {
				field = "ContendedKIOPS"
			}
			rep.Point(labels("fig10", "FS", name), th).Floats(map[string]float64{field: tput / 1000})
		}
	}
	return nil
}

var fig10Tables = []bench.Table{{
	Title: "Figure 10: scalability (kIOPS) vs threads", Where: labels("fig10"),
	Rows: []string{"Threads"}, RowHead: "threads", Pivot: "FS",
	Cols: []bench.Col{{Field: "KIOPS", Fmt: "%.0f"}}, Else: []bench.Col{{Field: "ContendedKIOPS", Fmt: "%.0f"}},
}}
