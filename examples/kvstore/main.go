// Kvstore: run the PmemKV-style memory-mapped key-value store (the §5.4
// workload) on an aged WineFS and an aged ext4-DAX, reproducing the
// Figure 7(c) comparison at demo scale: PmemKV grows its pool with
// fallocate, and on ext4-DAX every page fault must zero its page, while
// WineFS serves the pool from pre-zeroed aligned extents.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/pmemkv"
	"repro/internal/fstest"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
)

func main() {
	const (
		records = 8000
		valSize = 4096
	)
	fmt.Printf("PmemKV fillseq: %d records x %dB on aged file systems\n\n", records, valSize)

	for _, name := range []string{"WineFS", "ext4-DAX", "NOVA"} {
		dev := pmem.New(1 << 30)
		setup := sim.NewCtx(1, 0)
		mk, _ := fstest.ByName(name, 8)
		fs, err := mk.Make(setup, dev)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := geriatrix.New(fs, geriatrix.Config{
			TargetUtil: 0.75, ChurnFactor: 1, Seed: 3,
		}).Run(setup); err != nil {
			log.Fatal(err)
		}

		ctx := sim.NewCtx(2, 0)
		ctx.AdvanceTo(setup.Now())
		db, err := pmemkv.OpenSized(ctx, fs, "/kv", 64<<20)
		if err != nil {
			log.Fatal(err)
		}
		start := ctx.Now()
		val := make([]byte, valSize)
		for i := uint64(0); i < records; i++ {
			if err := db.Put(ctx, i, val); err != nil {
				log.Fatalf("%s: put %d: %v", name, i, err)
			}
		}
		elapsed := ctx.Now() - start
		ops := float64(records) / (float64(elapsed) / 1e9)

		// Read back a sample to prove integrity.
		buf := make([]byte, valSize)
		if n, err := db.Get(ctx, records/2, buf); err != nil || n != valSize {
			log.Fatalf("%s: get: n=%d err=%v", name, n, err)
		}

		fmt.Printf("%-10s  %8.0f inserts/s   faults: %d huge / %d base\n",
			name, ops, ctx.Counters.HugeFaults, ctx.Counters.PageFaults)
	}
	fmt.Println("\nWineFS keeps serving the fallocated pool from hugepages even aged;")
	fmt.Println("the baselines fall back to base pages and fault-time work (Table 2).")
}
