// Command mkfs creates a simulated persistent-memory device image and
// formats it with WineFS, sizing the inode tables from the device. The
// consistency mode is not recorded on the image: it is a mount option.
//
// Usage:
//
//	mkfs -img wine.img [-size 1g] [-cpus 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

func main() {
	img := flag.String("img", "", "output image path (required)")
	size := flag.String("size", "1g", "device size (k/m/g suffixes)")
	cpus := flag.Int("cpus", 8, "per-CPU journals and pools")
	flag.Parse()
	if *img == "" {
		flag.Usage()
		os.Exit(2)
	}
	bytes, err := pmem.ParseSize(*size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: bad size: %v\n", err)
		os.Exit(2)
	}
	dev := pmem.New(bytes)
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: *cpus})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: %v\n", err)
		os.Exit(1)
	}
	if err := fs.Unmount(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: unmount: %v\n", err)
		os.Exit(1)
	}
	if err := dev.Save(*img); err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: save: %v\n", err)
		os.Exit(1)
	}
	st := fs.StatFS(ctx)
	fmt.Printf("mkfs: WineFS on %s: %d blocks, %d free, %d aligned 2MiB extents\n",
		*img, st.TotalBlocks, st.FreeBlocks, st.FreeAligned2M)
}
