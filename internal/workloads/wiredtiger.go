package workloads

import (
	"repro/internal/sim"
	"repro/internal/vfs"
)

// WiredTigerConfig sizes the WiredTiger-style driver (§5.5: FillRandom and
// ReadRandom with 1KiB values, unaligned on purpose).
type WiredTigerConfig struct {
	Records int64
	Seed    uint64
}

// wiredTigerCheckpointEvery forces an fsync after this many inserts.
const wiredTigerCheckpointEvery = 500

// WiredTigerFill appends Records values of recordBytes to a table file at
// naturally unaligned offsets, fsyncing at checkpoints. NOVA must CoW the
// partial tail block on every such append ("NOVA copies the data in the
// partial block to the new block and then appends new data"); WineFS keeps
// appending in place under journal protection. Returns (ops, virtualNS,
// the table offsets for the read phase).
func WiredTigerFill(ctx *sim.Ctx, fs vfs.FS, cfg WiredTigerConfig) (int64, int64, []int64, error) {
	if err := fs.Mkdir(ctx, "/wt"); err != nil && err != vfs.ErrExist {
		return 0, 0, nil, err
	}
	table, err := fs.Create(ctx, "/wt/table.wt")
	if err != nil {
		return 0, 0, nil, err
	}
	log, err := fs.Create(ctx, "/wt/journal")
	if err != nil {
		return 0, 0, nil, err
	}
	rng := sim.NewRand(cfg.Seed + 5)
	val := make([]byte, recordBytes)
	offsets := make([]int64, 0, cfg.Records)
	start := ctx.Now()
	var off int64
	for i := int64(0); i < cfg.Records; i++ {
		// Key order is random (fillrandom) but the B-tree writes pages in
		// append order with per-record log entries.
		val[0] = byte(rng.Intn(256))
		if _, err := log.Append(ctx, val[:128]); err != nil {
			return 0, 0, nil, err
		}
		if _, err := table.Append(ctx, val); err != nil {
			return 0, 0, nil, err
		}
		offsets = append(offsets, off)
		off += recordBytes
		if int(i)%wiredTigerCheckpointEvery == wiredTigerCheckpointEvery-1 {
			if err := table.Fsync(ctx); err != nil {
				return 0, 0, nil, err
			}
			if err := log.Fsync(ctx); err != nil {
				return 0, 0, nil, err
			}
		}
	}
	return cfg.Records, ctx.Now() - start, offsets, nil
}

// WiredTigerRead performs the ReadRandom phase over the filled table.
func WiredTigerRead(ctx *sim.Ctx, fs vfs.FS, cfg WiredTigerConfig, offsets []int64) (int64, int64, error) {
	table, err := fs.Open(ctx, "/wt/table.wt")
	if err != nil {
		return 0, 0, err
	}
	rng := sim.NewRand(cfg.Seed + 6)
	buf := make([]byte, recordBytes)
	start := ctx.Now()
	for i := int64(0); i < cfg.Records; i++ {
		off := offsets[rng.Intn(len(offsets))]
		if _, err := table.ReadAt(ctx, buf, off); err != nil {
			return 0, 0, err
		}
	}
	return cfg.Records, ctx.Now() - start, nil
}

// ScalabilityConfig sizes the Figure 10 microbenchmark: per thread,
// create a file, append scalabilityAppendsPerOp chunks of
// scalabilityAppendSize bytes, fsync, unlink — repeatedly.
type ScalabilityConfig struct {
	Threads      int
	OpsPerThread int
}

const (
	scalabilityAppendSize   = 4096
	scalabilityAppendsPerOp = 4
)

// Scalability runs the create/append/fsync/unlink loop on every thread
// (each pinned to its own CPU) and returns total kIOPS-style throughput:
// completed operations (each syscall counts) per virtual second.
func Scalability(fs vfs.FS, cfg ScalabilityConfig) (float64, error) {
	setup := sim.NewCtx(1000, 0)
	if err := fs.Mkdir(setup, "/scale"); err != nil && err != vfs.ErrExist {
		return 0, err
	}
	// Per-thread working directories: the microbenchmark measures journal
	// and allocator scalability, not contention on one directory's lock.
	for th := 0; th < cfg.Threads; th++ {
		if err := fs.Mkdir(setup, "/scale/w"+itoa(th)); err != nil && err != vfs.ErrExist {
			return 0, err
		}
	}
	setupEnd := setup.Now()
	ctxs := sim.NewThreads(cfg.Threads, 4000, cfg.Threads, setupEnd)
	if err := sim.RunThreads(ctxs, func(th int, ctx *sim.Ctx) error {
		dir := "/scale/w" + itoa(th)
		data := make([]byte, scalabilityAppendSize)
		for i := 0; i < cfg.OpsPerThread; i++ {
			path := dir + "/t" + itoa(th) + "_" + itoa(i)
			f, err := fs.Create(ctx, path)
			if err != nil {
				return err
			}
			for a := 0; a < scalabilityAppendsPerOp; a++ {
				if _, err := f.Append(ctx, data); err != nil {
					return err
				}
			}
			if err := f.Fsync(ctx); err != nil {
				return err
			}
			if err := fs.Unlink(ctx, path); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	var maxNS int64
	for _, ctx := range ctxs {
		maxNS = max(maxNS, ctx.Now())
	}
	// Each loop is a create, the appends, an fsync and an unlink.
	totalOps := int64(cfg.Threads * cfg.OpsPerThread * (scalabilityAppendsPerOp + 3))
	if maxNS <= setupEnd {
		return 0, nil
	}
	return float64(totalOps) / (float64(maxNS-setupEnd) / 1e9), nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
