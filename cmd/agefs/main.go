// Command agefs ages a WineFS image with the Geriatrix protocol (§5.1):
// create/delete churn following a realistic file-size profile until the
// target utilisation is reached in a naturally fragmented state. The mount
// takes the CPU count and the rest of the geometry from the image; the
// protocol's settings are the constants below.
//
// Usage:
//
//	agefs -img wine.img
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/alloc"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// The aging run: the Agrawal file-size profile to 75% utilisation, after
// churning twice the capacity, from seed 42.
const (
	targetUtil = 0.75
	churn      = 2.0
	seed       = 42
)

func main() {
	img := flag.String("img", "", "image path (required)")
	flag.Parse()
	if *img == "" {
		flag.Usage()
		os.Exit(2)
	}
	dev, err := pmem.Load(*img)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agefs: %v\n", err)
		os.Exit(1)
	}
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mount(ctx, dev, winefs.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "agefs: mount: %v\n", err)
		os.Exit(1)
	}
	p := geriatrix.Agrawal()
	ager := geriatrix.New(fs, geriatrix.Config{
		TargetUtil:  targetUtil,
		ChurnFactor: churn,
		Profile:     p,
		Seed:        seed,
	})
	st, err := ager.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agefs: %v\n", err)
		os.Exit(1)
	}
	if err := fs.Unmount(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "agefs: unmount: %v\n", err)
		os.Exit(1)
	}
	if err := dev.Save(*img); err != nil {
		fmt.Fprintf(os.Stderr, "agefs: save: %v\n", err)
		os.Exit(1)
	}
	frac := alloc.AlignedFreeFraction(fs.FreeExtents())
	fmt.Printf("agefs: %s profile, %.0f%% util, %.1fx churn: %d created, %d deleted, %d live files\n",
		p.Name, st.FinalUtil*100, churn, st.Created, st.Deleted, st.LiveFiles)
	fmt.Printf("agefs: %.1f%% of free space remains in aligned 2MiB regions\n", frac*100)
}
