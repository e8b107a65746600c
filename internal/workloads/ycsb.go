// Package workloads implements the benchmark drivers the paper evaluates
// with (Table 1): YCSB, db_bench-style KV workloads, the four Filebench
// personalities, a pgbench TPC-B-style driver, and a WiredTiger-style
// fill/read driver. Drivers are independent of the system under test: KV
// workloads run over the KV interface, file workloads over vfs.FS.
package workloads

import (
	"fmt"

	"repro/internal/sim"
)

// KV is the key-value interface the YCSB and db_bench drivers target.
type KV interface {
	Put(ctx *sim.Ctx, key uint64, val []byte) error
	Get(ctx *sim.Ctx, key uint64, buf []byte) (int, error)
}

// YCSBKind selects a YCSB workload mix.
type YCSBKind int

// The standard YCSB workloads.
const (
	YCSBLoad YCSBKind = iota // 100% insert
	YCSBA                    // 50% read / 50% update, zipfian
	YCSBB                    // 95% read / 5% update, zipfian
	YCSBC                    // 100% read, zipfian
	YCSBD                    // 95% read-latest / 5% insert
	YCSBE                    // 95% scan / 5% insert (scan ≈ run of gets)
	YCSBF                    // 50% read / 50% read-modify-write
)

func (k YCSBKind) String() string {
	return [...]string{"Load", "A", "B", "C", "D", "E", "F"}[k]
}

// AllYCSB lists the workloads Figure 7(a) reports.
func AllYCSB() []YCSBKind {
	return []YCSBKind{YCSBLoad, YCSBA, YCSBB, YCSBC, YCSBD, YCSBE, YCSBF}
}

// YCSBConfig sizes a run.
type YCSBConfig struct {
	// Records in the loaded dataset.
	Records int64
	// Operations in the run phase.
	Operations int64
	// ValueSize per record (YCSB default 1KiB across 10 fields).
	ValueSize int
	Seed      uint64
}

// ycsbTheta is the Zipf skew of every YCSB run.
const ycsbTheta = 0.99

func (c *YCSBConfig) defaults() {
	if c.Records == 0 {
		c.Records = 100000
	}
	if c.Operations == 0 {
		c.Operations = c.Records
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
}

// YCSBResult reports a run.
type YCSBResult struct {
	Kind YCSBKind
	Ops  int64
	// VirtualNS is the virtual time the run phase took.
	VirtualNS int64
}

// Throughput returns operations per virtual second.
func (r YCSBResult) Throughput() float64 {
	if r.VirtualNS == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.VirtualNS) / 1e9)
}

// YCSBLoadPhase inserts the dataset (workload "Load").
func YCSBLoadPhase(ctx *sim.Ctx, kv KV, cfg YCSBConfig) error {
	cfg.defaults()
	val := make([]byte, cfg.ValueSize)
	for i := int64(0); i < cfg.Records; i++ {
		val[0] = byte(i)
		if err := kv.Put(ctx, uint64(i), val); err != nil {
			return fmt.Errorf("ycsb load at %d: %w", i, err)
		}
	}
	return nil
}

// YCSBRun executes the run phase of the given workload against a loaded
// store and returns throughput in virtual time.
func YCSBRun(ctx *sim.Ctx, kv KV, kind YCSBKind, cfg YCSBConfig) (YCSBResult, error) {
	cfg.defaults()
	if kind == YCSBLoad {
		start := ctx.Now()
		if err := YCSBLoadPhase(ctx, kv, cfg); err != nil {
			return YCSBResult{}, err
		}
		return YCSBResult{Kind: kind, Ops: cfg.Records, VirtualNS: ctx.Now() - start}, nil
	}
	rng := sim.NewRand(cfg.Seed + uint64(kind)*131)
	zipf := sim.NewZipf(rng, cfg.Records, ycsbTheta)
	val := make([]byte, cfg.ValueSize)
	buf := make([]byte, cfg.ValueSize)
	inserted := cfg.Records
	start := ctx.Now()
	for op := int64(0); op < cfg.Operations; op++ {
		switch kind {
		case YCSBA:
			if rng.Intn(2) == 0 {
				kv.Get(ctx, uint64(zipf.Next()), buf)
			} else if err := kv.Put(ctx, uint64(zipf.Next()), val); err != nil {
				return YCSBResult{}, err
			}
		case YCSBB:
			if rng.Intn(100) < 95 {
				kv.Get(ctx, uint64(zipf.Next()), buf)
			} else if err := kv.Put(ctx, uint64(zipf.Next()), val); err != nil {
				return YCSBResult{}, err
			}
		case YCSBC:
			kv.Get(ctx, uint64(zipf.Next()), buf)
		case YCSBD:
			if rng.Intn(100) < 95 {
				// Read-latest: recent inserts.
				back := int64(rng.Intn(1000))
				k := inserted - 1 - back
				if k < 0 {
					k = 0
				}
				kv.Get(ctx, uint64(k), buf)
			} else {
				if err := kv.Put(ctx, uint64(inserted), val); err != nil {
					return YCSBResult{}, err
				}
				inserted++
			}
		case YCSBE:
			if rng.Intn(100) < 95 {
				// Scan: a short run of sequential reads.
				base := zipf.Next()
				n := 1 + rng.Intn(20)
				for s := 0; s < n; s++ {
					k := base + int64(s)
					if k >= inserted {
						break
					}
					kv.Get(ctx, uint64(k), buf)
				}
			} else {
				if err := kv.Put(ctx, uint64(inserted), val); err != nil {
					return YCSBResult{}, err
				}
				inserted++
			}
		case YCSBF:
			k := uint64(zipf.Next())
			kv.Get(ctx, k, buf)
			if rng.Intn(2) == 0 {
				if err := kv.Put(ctx, k, val); err != nil {
					return YCSBResult{}, err
				}
			}
		}
	}
	return YCSBResult{Kind: kind, Ops: cfg.Operations, VirtualNS: ctx.Now() - start}, nil
}

// --- db_bench-style drivers -------------------------------------------------

// DBBenchKind selects a db_bench workload.
type DBBenchKind int

// The db_bench workloads the paper uses (LMDB fillseqbatch, PmemKV
// fillseq, WiredTiger fillrandom/readrandom).
const (
	FillSeq DBBenchKind = iota
	FillSeqBatch
	FillRandom
	ReadRandom
)

func (k DBBenchKind) String() string {
	return [...]string{"fillseq", "fillseqbatch", "fillrandom", "readrandom"}[k]
}

// Batcher is implemented by stores with a batched insert path (LMDB).
type Batcher interface {
	PutBatch(ctx *sim.Ctx, keys []uint64, vals [][]byte) error
}

// DBBenchConfig sizes a run.
type DBBenchConfig struct {
	Records   int64
	ValueSize int
	BatchSize int
	Seed      uint64
}

func (c *DBBenchConfig) defaults() {
	if c.Records == 0 {
		c.Records = 100000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	if c.BatchSize == 0 {
		c.BatchSize = 100
	}
}

// DBBench runs one db_bench workload and returns (ops, virtual ns).
func DBBench(ctx *sim.Ctx, kv KV, kind DBBenchKind, cfg DBBenchConfig) (int64, int64, error) {
	cfg.defaults()
	rng := sim.NewRand(cfg.Seed + 17)
	val := make([]byte, cfg.ValueSize)
	buf := make([]byte, cfg.ValueSize)
	start := ctx.Now()
	switch kind {
	case FillSeq:
		for i := int64(0); i < cfg.Records; i++ {
			if err := kv.Put(ctx, uint64(i), val); err != nil {
				return 0, 0, err
			}
		}
	case FillSeqBatch:
		b, ok := kv.(Batcher)
		keys := make([]uint64, 0, cfg.BatchSize)
		vals := make([][]byte, 0, cfg.BatchSize)
		for i := int64(0); i < cfg.Records; i++ {
			keys = append(keys, uint64(i))
			vals = append(vals, val)
			if len(keys) == cfg.BatchSize || i == cfg.Records-1 {
				if ok {
					if err := b.PutBatch(ctx, keys, vals); err != nil {
						return 0, 0, err
					}
				} else {
					for j, k := range keys {
						if err := kv.Put(ctx, k, vals[j]); err != nil {
							return 0, 0, err
						}
					}
				}
				keys = keys[:0]
				vals = vals[:0]
			}
		}
	case FillRandom:
		for i := int64(0); i < cfg.Records; i++ {
			if err := kv.Put(ctx, rng.Uint64()%uint64(cfg.Records*4), val); err != nil {
				return 0, 0, err
			}
		}
	case ReadRandom:
		for i := int64(0); i < cfg.Records; i++ {
			kv.Get(ctx, uint64(rng.Int63n(cfg.Records)), buf)
		}
	}
	return cfg.Records, ctx.Now() - start, nil
}
