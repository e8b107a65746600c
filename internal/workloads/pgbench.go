package workloads

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// PgbenchConfig sizes the TPC-B-style read-write workload §5.5 runs
// against PostgreSQL (32 threads, 60GB database in the paper; scaled here).
type PgbenchConfig struct {
	Threads int
	// DatabaseBytes is the table heap size.
	DatabaseBytes int64
	// TxPerThread is the number of TPC-B transactions per thread.
	TxPerThread int
	Seed        uint64
}

// PgbenchResult reports transactions per virtual second.
type PgbenchResult struct {
	Tx        int64
	VirtualNS int64
	// WaitNS is the average per-thread virtual time lost to contention.
	WaitNS int64
}

// TPS returns transactions per virtual second.
func (r PgbenchResult) TPS() float64 {
	if r.VirtualNS == 0 {
		return 0
	}
	return float64(r.Tx) / (float64(r.VirtualNS) / 1e9)
}

const pgPage = 8192

// Pgbench runs the read-write TPC-B-like mix: each transaction reads three
// random heap pages, overwrites one in place, appends a WAL record and
// fsyncs the WAL. The in-place heap overwrite is the operation that
// separates journaling (WineFS) from log-structuring (NOVA) in Figure 9:
// "NOVA has to delete per-inode log entries, add new entries ... WineFS
// only modifies the inode in a journal transaction."
//
// The database is built on setup, the caller's context, and the threads
// start where it ends: on a file system that has already run work, a
// setup context at the file system's clock frontier keeps the threads from
// paying the earlier bookings as lock wait.
func Pgbench(setup *sim.Ctx, fs vfs.FS, cfg PgbenchConfig) (PgbenchResult, error) {
	if err := fs.Mkdir(setup, "/pg"); err != nil && err != vfs.ErrExist {
		return PgbenchResult{}, err
	}
	// PostgreSQL stores each relation in 1GiB segment files; the workload's
	// page accesses therefore spread across several inodes rather than
	// serialising on one file's VFS lock. We scale to 8 segments.
	const segments = 8
	segBytes := cfg.DatabaseBytes / segments
	heapSegs := make([]vfs.File, segments)
	buf := make([]byte, 1<<20)
	for s := 0; s < segments; s++ {
		seg, err := fs.Create(setup, fmt.Sprintf("/pg/heap.%d", s))
		if err != nil {
			return PgbenchResult{}, err
		}
		if err := seg.Fallocate(setup, 0, segBytes); err != nil {
			return PgbenchResult{}, err
		}
		// Initialise (sequential write pass, like pgbench -i).
		for off := int64(0); off < segBytes; off += int64(len(buf)) {
			if _, err := seg.WriteAt(setup, buf, off); err != nil {
				return PgbenchResult{}, err
			}
		}
		heapSegs[s] = seg
	}
	pagesPerSeg := segBytes / pgPage

	pages := pagesPerSeg * segments
	setupEnd := setup.Now()
	ctxs := sim.NewThreads(cfg.Threads, 3000, cfg.Threads, setupEnd)
	if err := sim.RunThreads(ctxs, func(th int, ctx *sim.Ctx) error {
		rng := sim.NewRand(cfg.Seed + uint64(th)*31 + 7)
		wal, err := fs.Create(ctx, fmt.Sprintf("/pg/wal%d", th))
		if err != nil {
			return err
		}
		page := make([]byte, pgPage)
		walRec := make([]byte, 180)
		pick := func() (vfs.File, int64) {
			p := rng.Int63n(pages)
			return heapSegs[p/pagesPerSeg], (p % pagesPerSeg) * pgPage
		}
		for tx := 0; tx < cfg.TxPerThread; tx++ {
			for r := 0; r < 3; r++ {
				seg, off := pick()
				if _, err := seg.ReadAt(ctx, page, off); err != nil {
					return err
				}
			}
			seg, off := pick()
			if _, err := seg.WriteAt(ctx, page, off); err != nil {
				return err
			}
			if _, err := wal.Append(ctx, walRec); err != nil {
				return err
			}
			if err := wal.Fsync(ctx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return PgbenchResult{}, err
	}
	var maxNS, totalWait int64
	for _, ctx := range ctxs {
		maxNS = max(maxNS, ctx.Now())
		totalWait += ctx.Counters.LockWaitNS
	}
	return PgbenchResult{Tx: int64(cfg.Threads * cfg.TxPerThread), VirtualNS: maxNS - setupEnd,
		WaitNS: totalWait / int64(cfg.Threads)}, nil
}
