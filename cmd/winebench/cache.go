package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/fileserver"
	"repro/internal/pagecache"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workloads"
)

// winebench -cache: the client-cache effectiveness sweep. The CachedMix
// workload (populate, re-read rounds, in-place rewrite) runs twice on
// identical fresh servers — once with bare fileserver clients, once with
// each client wrapped in internal/pagecache — and the re-read phase's
// virtual cost per read is compared. Then the HotScan workload (a hot set
// of half the cache re-read between slices of a cold scan four times the
// cache) runs through small caches on a third server. Two acceptance gates
// are hard-coded, on top of whatever the committed BENCH_cache.json
// baseline pins: the cached configuration must serve re-reads at least
// cacheMinSpeedup times cheaper, and the hot set must survive the scan.

const (
	// cacheMinSpeedup is the required uncached/cached per-read cost ratio.
	cacheMinSpeedup = 5.0
	// hotScanMinHitRatio is the share of HotScan's hot-set re-reads the
	// cache must serve. Each scan slice is a whole cache of pages read
	// once, so plain LRU replacement scores 0 here; keeping the hot set
	// through it is what the active/inactive policy is for.
	hotScanMinHitRatio = 0.95
)

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
	// Cache sums the clients' replacement statistics as they stood before
	// the unmounts; zero when uncached.
	Cache pagecache.Stats
}

// runCacheBench runs both variants and the HotScan point, packs the
// report, prints it and enforces the speedup and hot-set gates.
func runCacheBench(o options) (*bench.Report, error) {
	clients, cpus := o.clients, o.cpus
	cfg := workloads.CachedMixConfig{Files: 24, Seed: o.seed}
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
	hs, err := runHotScan(clients, cpus)
	if err != nil {
		return nil, fmt.Errorf("hotscan: %w", err)
	}
	rep := bench.New("cache/v1", map[string]float64{
		"Clients": float64(clients), "Files": float64(cfg.Files), "FileKB": workloads.CachedMixFileKB,
		"Rounds": workloads.CachedMixRounds, "CPUs": float64(cpus), "Seed": float64(o.seed)})
	for _, v := range []struct {
		name string
		*cacheVariant
	}{{"Uncached", &uncached}, {"Cached", &cached}} {
		p := rep.Point(map[string]string{"Variant": v.name}, 0)
		p.Ints(map[string]int64{"Reads": v.Reads, "ReadBytes": v.ReadBytes, "BytesWritten": v.BytesWritten,
			"ServerOps": v.ServerOps, "ReadNS": v.ReadNS, "PopulateNS": v.PopulateNS, "RewriteNS": v.RewriteNS})
		p.Floats(map[string]float64{"ReadNSPerRead": v.ReadNSPerRead})
		if v.name == "Cached" {
			p.Floats(map[string]float64{"ReadSpeedup": speedup})
		}
		p.AddCounters("Counters.", &v.Counters)
		packCache(p, &v.Counters, v.Cache)
	}
	p := rep.Point(map[string]string{"Variant": "HotScan"}, 0)
	p.Ints(map[string]int64{"HotReads": hs.HotReads, "HotHits": hs.HotHits, "ScanReads": hs.ScanReads,
		"ReadBytes": hs.ReadBytes, "ServerOps": hs.ServerOps, "CachePages": workloads.HotScanCachePages,
		"Promotions": hs.Cache.Promotions, "Demotions": hs.Cache.Demotions})
	p.Floats(map[string]float64{"HotHitRatio": hs.hotHitRatio()})
	p.AddCounters("Counters.", &hs.Counters)
	packCache(p, &hs.Counters, hs.Cache)
	rep.Print(os.Stdout, bench.Table{
		Title: fmt.Sprintf("Client page cache: %d clients x %d files x %dKiB, %d re-read rounds",
			clients, cfg.Files, workloads.CachedMixFileKB, workloads.CachedMixRounds),
		Where: map[string]string{"Variant": "Uncached|Cached"}, Rows: []string{"Variant"}, RowHead: "variant",
		Cols: append([]bench.Col{
			{Head: "re-reads", Field: "Reads", Fmt: "%.0f"},
			{Head: "read cost", Field: "ReadNSPerRead", Fmt: "%.0fns/read"},
			{Head: "server ops", Field: "ServerOps", Fmt: "%.0f"},
			{Head: "flushed", Field: "Counters.CacheFlushBytes", Fmt: "%.0fB"},
			{Head: "re-read speedup", Field: "ReadSpeedup", Fmt: "%.1fx"},
		}, cacheCols...),
	}, bench.Table{
		Title: fmt.Sprintf("Scan resistance: %d clients, %d-page caches, hot set %d pages re-read after each of %d scan slices (hit ratio gate %.0f%%)",
			clients, workloads.HotScanCachePages, workloads.HotScanCachePages/2,
			hs.ScanReads/int64(clients*workloads.HotScanCachePages), 100*hotScanMinHitRatio),
		Where: map[string]string{"Variant": "HotScan"},
		Cols: append([]bench.Col{
			{Head: "hot-set re-reads", Field: "HotReads", Fmt: "%.0f"},
			{Head: "hot-set hit ratio", Field: "HotHitRatio", Fmt: "%.1f%%", Scale: 100},
			{Head: "scan reads", Field: "ScanReads", Fmt: "%.0f"},
			{Head: "evictions", Field: "Counters.CacheEvictions", Fmt: "%.0f"},
			{Head: "server ops", Field: "ServerOps", Fmt: "%.0f"},
		}, cacheCols...),
	})
	if speedup < cacheMinSpeedup {
		return nil, fmt.Errorf("re-read speedup %.2fx below required %.1fx", speedup, cacheMinSpeedup)
	}
	if r := hs.hotHitRatio(); r < hotScanMinHitRatio {
		return nil, fmt.Errorf("hot-set hit ratio %.3f below required %.2f: the scan evicted the hot set", r, hotScanMinHitRatio)
	}
	return rep, nil
}

// hotScanRun is the HotScan point: the clients' results, counters and cache
// Stats summed. Each client works alone on its own files through its own
// cache, so every number is exactly reproducible.
type hotScanRun struct {
	workloads.HotScanResult
	ServerOps int64
	Counters  perf.Counters
	Cache     pagecache.Stats
}

func (h *hotScanRun) hotHitRatio() float64 {
	if h.HotReads == 0 {
		return 0
	}
	return float64(h.HotHits) / float64(h.HotReads)
}

// runHotScan fans HotScan clients out over a fresh server, each through a
// cache of workloads.HotScanCachePages.
func runHotScan(clients, cpus int) (hotScanRun, error) {
	var h hotScanRun
	st, err := withFreshServer(cpus, 1<<30, nil, func(pl *fileserver.PipeListener) error {
		results, ctxs, cs, err := mixFanout(pl.Dial, clients, cpus, &pagecache.Config{MaxPages: workloads.HotScanCachePages},
			workloads.HotScanClient)
		if err != nil {
			return err
		}
		h.Cache = sumReplacement(cs)
		for i, r := range results {
			h.Ops += r.Ops
			h.HotReads += r.HotReads
			h.HotHits += r.HotHits
			h.ScanReads += r.ScanReads
			h.ReadBytes += r.ReadBytes
			h.Counters.Add(ctxs[i].Counters)
		}
		return nil
	})
	h.ServerOps = st.Ops
	return h, err
}

// runCacheVariant fans out `clients` concurrent CachedMix clients over a
// fresh server, through default-sized caches or bare.
func runCacheVariant(cached bool, clients, cpus int, cfg workloads.CachedMixConfig) (cacheVariant, error) {
	var v cacheVariant
	var results []workloads.CachedMixResult
	var ctxs []*sim.Ctx
	st, err := withFreshServer(cpus, 1<<30, nil, func(pl *fileserver.PipeListener) (err error) {
		var cs []pagecache.Stats
		results, ctxs, cs, err = mixFanout(pl.Dial, clients, cpus, defaultCache(cached), func(ctx *sim.Ctx, target vfs.FS, i int) (workloads.CachedMixResult, error) {
			return workloads.CachedMixClient(ctx, target, i, cfg)
		})
		v.Cache = sumReplacement(cs)
		return err
	})
	if err != nil {
		return v, err
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
	v.ServerOps = st.Ops
	return v, nil
}

// defaultCache is mixFanout's cache argument for a cached-or-not switch:
// the default-sized page cache, or none.
func defaultCache(cached bool) *pagecache.Config {
	if cached {
		return &pagecache.Config{}
	}
	return nil
}

// sumReplacement adds up the clients' page counts and replacement counters.
func sumReplacement(cstats []pagecache.Stats) (sum pagecache.Stats) {
	for _, st := range cstats {
		sum.Pages += st.Pages
		sum.ActivePages += st.ActivePages
		sum.Promotions += st.Promotions
		sum.Demotions += st.Demotions
	}
	return sum
}

// packCache files a run's derived client-cache numbers as Info: c's hit
// ratio and the replacement lists' work in st — pages promoted to the
// active lists on their second touch, pages demoted back by eviction, and
// what is on the active lists at the end of the run (nothing, when the
// workload closed its files). A run without cache activity files neither,
// and cacheCols print "-".
func packCache(p *bench.Point, c *perf.Counters, st pagecache.Stats) {
	if n := c.CacheHits + c.CacheMisses; n > 0 {
		p.Floats(map[string]float64{"HitRatio": float64(c.CacheHits) / float64(n)})
	}
	if st.Pages > 0 || st.Promotions > 0 {
		p.Ints(map[string]int64{"Cache.Pages": int64(st.Pages), "Cache.ActivePages": int64(st.ActivePages),
			"Cache.Promotions": st.Promotions, "Cache.Demotions": st.Demotions})
	}
}

// cacheCols prints what packCache files.
var cacheCols = []bench.Col{
	{Head: "cache hit ratio", Field: "HitRatio", Fmt: "%.1f%%", Scale: 100},
	{Head: "cache replacement", Field: "Cache.Promotions,Cache.Demotions,Cache.ActivePages,Cache.Pages",
		Fmt: "%.0f promoted, %.0f demoted, %.0f of %.0f pages active at the end"},
}
