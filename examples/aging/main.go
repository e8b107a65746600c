// Aging: reproduce the paper's headline observation (Figures 1 and 3) at
// demo scale. Three file systems are subjected to identical Geriatrix
// create/delete churn to 70% utilisation; the example then reports how
// much of each file system's free space still sits in 2MiB-aligned
// regions, and what memory-mapped write bandwidth a new file achieves.
//
// Expected output shape: WineFS retains nearly all of its aligned free
// space and its bandwidth; ext4-DAX and NOVA fragment and slow down.
package main

import (
	"fmt"
	"log"

	"repro/internal/alloc"
	"repro/internal/fstest"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vmm"
)

func main() {
	fmt.Println("aging three file systems to 70% utilisation (identical churn)...")
	fmt.Println()
	fmt.Printf("%-10s  %-22s  %-18s\n", "fs", "aligned free space", "mmap write bandwidth")

	for _, name := range []string{"WineFS", "ext4-DAX", "NOVA"} {
		dev := pmem.New(1 << 30)
		ctx := sim.NewCtx(1, 0)
		mk, _ := fstest.ByName(name, 8)
		fs, err := mk.Make(ctx, dev)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := geriatrix.New(fs, geriatrix.Config{
			TargetUtil:  0.70,
			ChurnFactor: 1.5,
			Seed:        7,
		}).Run(ctx); err != nil {
			log.Fatal(err)
		}
		alignedFrac := alloc.AlignedFreeFraction(fs.FreeExtents())

		// Bandwidth probe: allocate and mmap-write a 32MiB file.
		const probe = 32 << 20
		f, err := fs.Create(ctx, "/probe")
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Fallocate(ctx, 0, probe); err != nil {
			log.Fatal(err)
		}
		m, err := vmm.Map(ctx, f, probe, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
		if err != nil {
			log.Fatal(err)
		}
		bench := sim.NewCtx(2, 0)
		bench.AdvanceTo(ctx.Now())
		start := bench.Now()
		if err := m.Touch(bench, 0, probe, true); err != nil {
			log.Fatal(err)
		}
		gbs := float64(probe) / float64(bench.Now()-start)

		fmt.Printf("%-10s  %6.1f%% of free space  %6.2f GB/s  (%d huge / %d base faults)\n",
			name, alignedFrac*100, gbs, bench.Counters.HugeFaults, bench.Counters.PageFaults)
	}
}
