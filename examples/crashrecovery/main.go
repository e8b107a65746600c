// Crashrecovery: demonstrate WineFS's per-CPU undo journals end to end
// (§3.6, §5.2). The example records every device store during a rename,
// constructs a crash state in which the in-flight stores were torn — each
// cache line of them durable or not by coin flip — then mounts the image:
// recovery rolls the uncommitted transaction back across the per-CPU
// journals and the offline checker verifies the result.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/sim"
)

func main() {
	dev := repro.NewDevice(128 << 20)
	ctx := repro.NewThread(1, 0)
	fs, err := repro.MkfsWineFS(ctx, dev, repro.WineFSOptions{CPUs: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Some initial state.
	if err := fs.Mkdir(ctx, "/inbox"); err != nil {
		log.Fatal(err)
	}
	f, err := fs.Create(ctx, "/inbox/draft")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Append(ctx, []byte("message body")); err != nil {
		log.Fatal(err)
	}

	// Record the device stores of an atomic rename.
	rec, err := dev.Record(func() error { return fs.Rename(ctx, "/inbox/draft", "/inbox/sent") })
	if err != nil {
		log.Fatal(err)
	}
	last := rec.Last()
	fmt.Printf("rename issued %d device stores across %d fence epochs\n", len(rec.Stores), last+1)

	// Crash state: every store of the completed epochs persisted, and each
	// cache line the final epoch stored persisted by coin flip.
	crash := rec.Torn(last, 0.5, sim.NewRand(1))
	fmt.Printf("crash state: the epochs before %d durable, epoch %d torn at cache-line granularity\n", last, last)

	// Recover: mount rolls back the in-flight transaction.
	rctx := repro.NewThread(2, 0)
	rfs, err := repro.MountWineFS(rctx, crash, repro.WineFSOptions{CPUs: 2})
	if err != nil {
		log.Fatal(err)
	}
	if rep := repro.CheckWineFS(crash); !rep.OK() {
		log.Fatalf("fsck failed after recovery: %v", rep.Errors)
	}
	_, errOld := rfs.Stat(rctx, "/inbox/draft")
	_, errNew := rfs.Stat(rctx, "/inbox/sent")
	switch {
	case errOld == nil && errNew != nil:
		fmt.Println("recovered state: rename rolled back (draft present) — consistent")
	case errOld != nil && errNew == nil:
		fmt.Println("recovered state: rename completed (sent present) — consistent")
	default:
		log.Fatalf("inconsistent: draft=%v sent=%v", errOld, errNew)
	}
	fmt.Printf("recovery took %.2fms of virtual time; fsck: clean\n", float64(rctx.Now())/1e6)
}
