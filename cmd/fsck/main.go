// Command fsck checks a WineFS image for structural consistency: journal
// quiescence after recovery, extent ownership, directory connectivity and
// link counts.
//
// Usage:
//
//	fsck -img wine.img [-recover] [-repair] [-json]
//
// With -recover, uncommitted journal transactions are rolled back (a real
// mount) before checking, and the recovered image is saved back.
//
// With -repair, the offline repairing fsck runs first: poisoned journal
// tails are cleared, unreadable inode slots zeroed, corrupt extent lists
// truncated, unreachable inodes quarantined into /lost+found, and link
// counts recomputed; the repaired image is saved back.
//
// With -json, the report(s) are printed as a single JSON object on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// report is the -json output shape.
type report struct {
	Files      int                  `json:"files"`
	Dirs       int                  `json:"dirs"`
	UsedBlocks int64                `json:"used_blocks"`
	Clean      bool                 `json:"clean"`
	Degraded   string               `json:"degraded,omitempty"`
	Errors     []string             `json:"errors,omitempty"`
	Repair     *winefs.RepairReport `json:"repair,omitempty"`
}

func main() {
	img := flag.String("img", "", "image path (required)")
	doRecover := flag.Bool("recover", false, "run journal recovery before checking")
	doRepair := flag.Bool("repair", false, "run the offline repairing fsck before checking")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()
	if *img == "" {
		flag.Usage()
		os.Exit(2)
	}
	dev, err := pmem.Load(*img)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(1)
	}
	var repairRep *winefs.RepairReport
	if *doRepair {
		repairRep, err = winefs.Repair(dev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsck: repair failed: %v\n", err)
			os.Exit(1)
		}
		if err := dev.Save(*img); err != nil {
			fmt.Fprintf(os.Stderr, "fsck: save: %v\n", err)
			os.Exit(1)
		}
	}
	degradedReason := ""
	if *doRecover {
		ctx := sim.NewCtx(1, 0)
		fs, err := winefs.Mount(ctx, dev, winefs.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsck: recovery mount failed: %v\n", err)
			os.Exit(1)
		}
		if reason, degraded := fs.Degraded(); degraded {
			degradedReason = reason
			fmt.Fprintf(os.Stderr, "fsck: mount degraded to read-only: %s (try -repair)\n", reason)
		} else if err := fs.Unmount(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "fsck: unmount: %v\n", err)
			os.Exit(1)
		}
		if err := dev.Save(*img); err != nil {
			fmt.Fprintf(os.Stderr, "fsck: save: %v\n", err)
			os.Exit(1)
		}
	}
	rep := winefs.Check(dev)
	if *asJSON {
		out := report{
			Files:      rep.Files,
			Dirs:       rep.Dirs,
			UsedBlocks: rep.UsedBlocks,
			Clean:      rep.OK() && degradedReason == "",
			Degraded:   degradedReason,
			Errors:     rep.Errors,
			Repair:     repairRep,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
			os.Exit(1)
		}
		if !out.Clean {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("fsck: %d files, %d dirs, %d used blocks\n", rep.Files, rep.Dirs, rep.UsedBlocks)
	if repairRep != nil {
		fmt.Printf("fsck: repair: %d journals rolled back, %d cleared, %d inodes zeroed, %d extent lists truncated, %d orphans quarantined, %d nlinks fixed\n",
			repairRep.JournalsRolledBack, len(repairRep.JournalsCleared), len(repairRep.InodesZeroed),
			len(repairRep.ExtentsTruncated), len(repairRep.Orphans), repairRep.NlinksFixed)
		for _, n := range repairRep.Notes {
			fmt.Printf("fsck: repair: %s\n", n)
		}
	}
	if rep.OK() && degradedReason == "" {
		fmt.Println("fsck: clean")
		return
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "fsck: %s\n", e)
	}
	os.Exit(1)
}
