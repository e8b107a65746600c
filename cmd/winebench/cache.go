package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fileserver"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// winebench -cache: the client-cache effectiveness sweep. The CachedMix
// workload (populate, re-read rounds, in-place rewrite) runs twice on
// identical fresh servers — once with bare fileserver clients, once with
// each client wrapped in internal/pagecache — and the re-read phase's
// virtual cost per read is compared. The acceptance gate is hard-coded:
// the cached configuration must serve re-reads at least cacheMinSpeedup
// times cheaper, on top of whatever the committed BENCH_cache.json
// baseline pins.

// cacheMinSpeedup is the required uncached/cached per-read cost ratio.
const cacheMinSpeedup = 5.0

// cacheVariant is one configuration's aggregate over all clients.
type cacheVariant struct {
	// Exactly reproducible work numbers.
	Reads        int64
	ReadBytes    int64
	BytesWritten int64
	ServerOps    int64
	// Contention-derived virtual timings (toleranced in the report).
	ReadNS        int64
	PopulateNS    int64
	RewriteNS     int64
	ReadNSPerRead float64
	// Counters merges the client threads' perf counters; the cache hit and
	// miss counts in it are exactly reproducible.
	Counters perf.Counters
}

// runCacheBench runs both variants, prints the comparison, enforces the
// speedup gate and packs the report.
func runCacheBench(o options) (*bench.Report, error) {
	clients, cpus := o.clients, o.cpus
	cfg := workloads.CachedMixConfig{Files: 24, FileKB: 8, Rounds: 3, Seed: o.seed}
	if o.quick {
		cfg.Files = 12
	}
	uncached, err := runCacheVariant(false, clients, cpus, cfg)
	if err != nil {
		return nil, fmt.Errorf("uncached: %w", err)
	}
	cached, err := runCacheVariant(true, clients, cpus, cfg)
	if err != nil {
		return nil, fmt.Errorf("cached: %w", err)
	}
	speedup := 0.0 // uncached per-read cost / cached per-read cost
	if cached.ReadNSPerRead > 0 {
		speedup = uncached.ReadNSPerRead / cached.ReadNSPerRead
	}

	t := &experiments.Table{
		Title: fmt.Sprintf("Client page cache: %d clients x %d files x %dKiB, %d re-read rounds",
			clients, cfg.Files, cfg.FileKB, cfg.Rounds),
		Header: []string{"metric", "uncached", "cached"},
	}
	row := func(name string, f func(v *cacheVariant) string) {
		t.Rows = append(t.Rows, []string{name, f(&uncached), f(&cached)})
	}
	row("re-reads", func(v *cacheVariant) string { return fmt.Sprintf("%d", v.Reads) })
	row("read cost", func(v *cacheVariant) string { return fmt.Sprintf("%.0fns/read", v.ReadNSPerRead) })
	row("cache hit ratio", func(v *cacheVariant) string { return fmtHitRatio(&v.Counters) })
	row("server ops", func(v *cacheVariant) string { return fmt.Sprintf("%d", v.ServerOps) })
	row("flushed", func(v *cacheVariant) string { return fmt.Sprintf("%dB", v.Counters.CacheFlushBytes) })
	t.Rows = append(t.Rows, []string{"re-read speedup", fmt.Sprintf("%.1fx", speedup), ""})
	t.Print(os.Stdout)

	if speedup < cacheMinSpeedup {
		return nil, fmt.Errorf("re-read speedup %.2fx below required %.1fx", speedup, cacheMinSpeedup)
	}
	rep := bench.New("cache/v1", map[string]float64{
		"Clients": float64(clients), "Files": float64(cfg.Files), "FileKB": float64(cfg.FileKB),
		"Rounds": float64(cfg.Rounds), "CPUs": float64(cpus), "Seed": float64(o.seed)})
	for _, v := range []struct {
		name string
		*cacheVariant
	}{{"Uncached", &uncached}, {"Cached", &cached}} {
		p := rep.Point(map[string]string{"Variant": v.name}, 0)
		p.Ints(map[string]int64{"Reads": v.Reads, "ReadBytes": v.ReadBytes, "BytesWritten": v.BytesWritten,
			"ServerOps": v.ServerOps, "ReadNS": v.ReadNS, "PopulateNS": v.PopulateNS, "RewriteNS": v.RewriteNS})
		hitRatio := 0.0
		if n := v.Counters.CacheHits + v.Counters.CacheMisses; n > 0 {
			hitRatio = float64(v.Counters.CacheHits) / float64(n)
		}
		p.Floats(map[string]float64{"ReadNSPerRead": v.ReadNSPerRead, "HitRatio": hitRatio})
		if v.name == "Cached" {
			p.Floats(map[string]float64{"ReadSpeedup": speedup})
		}
		p.AddCounters("Counters.", &v.Counters)
	}
	return rep, nil
}

// runCacheVariant boots a fresh strict-mode server over the in-memory
// transport and fans out `clients` concurrent CachedMix clients, cached or
// not.
func runCacheVariant(cached bool, clients, cpus int, cfg workloads.CachedMixConfig) (cacheVariant, error) {
	var v cacheVariant
	dev := pmem.New(1 << 30)
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		return v, fmt.Errorf("mkfs: %w", err)
	}
	srv := fileserver.New(fs, fileserver.Config{CPUs: cpus})
	pl := fileserver.NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()

	results, ctxs, err := mixFanout(pl.Dial, clients, cpus, cached, func(ctx *sim.Ctx, target vfs.FS, i int) (workloads.CachedMixResult, error) {
		return workloads.CachedMixClient(ctx, target, i, cfg)
	})
	if err != nil {
		return v, err
	}
	srv.Shutdown()
	if err := <-serveErr; err != nil {
		return v, fmt.Errorf("serve: %w", err)
	}

	for i, r := range results {
		v.Reads += r.Reads
		v.ReadBytes += r.ReadBytes
		v.BytesWritten += r.BytesWritten
		if r.ReadNS > v.ReadNS {
			v.ReadNS = r.ReadNS
		}
		if r.PopulateNS > v.PopulateNS {
			v.PopulateNS = r.PopulateNS
		}
		if r.RewriteNS > v.RewriteNS {
			v.RewriteNS = r.RewriteNS
		}
		v.Counters.Add(ctxs[i].Counters)
	}
	if v.Reads > 0 {
		// Per-read cost uses the summed (not makespan) read time: clients
		// are independent, so the mean per-read cost is what the cache
		// changes.
		var sumNS int64
		for _, r := range results {
			sumNS += r.ReadNS
		}
		v.ReadNSPerRead = float64(sumNS) / float64(v.Reads)
	}
	v.ServerOps = srv.Stats().Ops
	return v, nil
}

// fmtHitRatio renders a counter set's cache hit ratio for human tables;
// "-" when the run had no cache activity at all.
func fmtHitRatio(c *perf.Counters) string {
	total := c.CacheHits + c.CacheMisses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(c.CacheHits)/float64(total))
}
