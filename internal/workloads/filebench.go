package workloads

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Personality selects a Filebench macro-benchmark (Table 1).
type Personality int

// The four personalities §5.5 evaluates.
const (
	Varmail Personality = iota
	Fileserver
	Webserver
	Webproxy
)

func (p Personality) String() string {
	return [...]string{"varmail", "fileserver", "webserver", "webproxy"}[p]
}

// meanFileKB is the personality's mean file size in KiB.
func (p Personality) meanFileKB() int {
	return [...]int{16, 128, 64, 64}[p]
}

// AllPersonalities lists the Figure 9 set.
func AllPersonalities() []Personality {
	return []Personality{Varmail, Fileserver, Webserver, Webproxy}
}

// FilebenchConfig sizes a run: file counts are scaled to the simulated
// partition, file sizes are the personality's.
type FilebenchConfig struct {
	Threads int
	Files   int
	// OpsPerThread is the number of personality iterations each thread
	// performs during the measured phase.
	OpsPerThread int
	Seed         uint64
}

// FilebenchResult reports a run.
type FilebenchResult struct {
	Personality Personality
	Ops         int64
	VirtualNS   int64 // slowest thread
}

// Throughput returns personality iterations per virtual second.
func (r FilebenchResult) Throughput() float64 {
	if r.VirtualNS == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.VirtualNS) / 1e9)
}

// Filebench prepares the fileset on setup, the caller's context, and runs
// the personality with the configured thread count, each thread on its own
// simulated CPU, starting where setup ends (see Pgbench).
func Filebench(setup *sim.Ctx, fs vfs.FS, p Personality, cfg FilebenchConfig) (FilebenchResult, error) {
	if err := fs.Mkdir(setup, "/fb"); err != nil && err != vfs.ErrExist {
		return FilebenchResult{}, err
	}
	if err := fs.Mkdir(setup, "/fb/logs"); err != nil && err != vfs.ErrExist {
		return FilebenchResult{}, err
	}
	rng := sim.NewRand(cfg.Seed + 1)
	// Pre-create the fileset.
	for i := 0; i < cfg.Files; i++ {
		f, err := fs.Create(setup, fbPath(i))
		if err != nil {
			return FilebenchResult{}, err
		}
		size := fbSize(rng, p.meanFileKB())
		if _, err := f.Append(setup, make([]byte, size)); err != nil {
			return FilebenchResult{}, err
		}
	}

	setupEnd := setup.Now()
	ctxs := sim.NewThreads(cfg.Threads, 2000, cfg.Threads, setupEnd)
	if err := sim.RunThreads(ctxs, func(th int, ctx *sim.Ctx) error {
		return fbThread(ctx, fs, p, cfg, th)
	}); err != nil {
		return FilebenchResult{}, err
	}
	var maxNS int64
	for _, ctx := range ctxs {
		maxNS = max(maxNS, ctx.Now())
	}
	return FilebenchResult{
		Personality: p,
		Ops:         int64(cfg.Threads * cfg.OpsPerThread),
		VirtualNS:   maxNS - setupEnd,
	}, nil
}

func fbPath(i int) string { return fmt.Sprintf("/fb/f%06d", i) }

// fbSize draws a file size around the mean (uniform half-to-double).
func fbSize(rng *sim.Rand, meanKB int) int64 {
	lo := int64(meanKB) << 9 // mean/2 KB in bytes
	return lo + rng.Int63n(3*lo)
}

func fbThread(ctx *sim.Ctx, fs vfs.FS, p Personality, cfg FilebenchConfig, th int) error {
	rng := sim.NewRand(cfg.Seed + uint64(th)*997 + 13)
	pick := func() string { return fbPath(rng.Intn(cfg.Files)) }
	readWhole := func(path string) error {
		f, err := fs.Open(ctx, path)
		if err != nil {
			return nil // deleted by another thread: fine
		}
		buf := make([]byte, 64<<10)
		var off int64
		for {
			n, err := f.ReadAt(ctx, buf, off)
			if err != nil || n == 0 {
				return err
			}
			off += int64(n)
		}
	}
	logFile, err := fs.Create(ctx, fmt.Sprintf("/fb/logs/log%d", th))
	if err != nil {
		return err
	}
	next := cfg.Files + th*cfg.OpsPerThread*2 // private namespace for creates

	for op := 0; op < cfg.OpsPerThread; op++ {
		switch p {
		case Varmail:
			// delete; create+append+fsync; read+append+fsync; read.
			fs.Unlink(ctx, pick())
			path := fbPath(next)
			next++
			f, err := fs.Create(ctx, path)
			if err != nil {
				return err
			}
			if _, err := f.Append(ctx, make([]byte, fbSize(rng, p.meanFileKB()))); err != nil {
				return err
			}
			if err := f.Fsync(ctx); err != nil {
				return err
			}
			if err := readWhole(pick()); err != nil {
				return err
			}
			if g, err := fs.Open(ctx, pick()); err == nil {
				g.Append(ctx, make([]byte, 8<<10))
				g.Fsync(ctx)
			}
			readWhole(pick())
		case Fileserver:
			// create+write whole; open+append; read whole; delete.
			path := fbPath(next)
			next++
			f, err := fs.Create(ctx, path)
			if err != nil {
				return err
			}
			if _, err := f.Append(ctx, make([]byte, fbSize(rng, p.meanFileKB()))); err != nil {
				return err
			}
			if g, err := fs.Open(ctx, pick()); err == nil {
				g.Append(ctx, make([]byte, 16<<10))
			}
			readWhole(pick())
			fs.Unlink(ctx, path)
		case Webserver:
			// read 10 files; append a log record.
			for i := 0; i < 10; i++ {
				readWhole(pick())
			}
			if _, err := logFile.Append(ctx, make([]byte, 16<<10)); err != nil {
				return err
			}
		case Webproxy:
			// delete; create+append; read 5 files; log append.
			fs.Unlink(ctx, pick())
			path := fbPath(next)
			next++
			f, err := fs.Create(ctx, path)
			if err != nil {
				return err
			}
			if _, err := f.Append(ctx, make([]byte, fbSize(rng, p.meanFileKB()))); err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				readWhole(pick())
			}
			if _, err := logFile.Append(ctx, make([]byte, 16<<10)); err != nil {
				return err
			}
		}
	}
	return nil
}
