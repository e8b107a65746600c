GO ?= go

.PHONY: all build test check race vet bench bench-engine bench-json bench-scaling bench-cache bench-replicated bench-mmap bench-defrag bench-tier cache-race mmap-race maint-race cluster-race fault-campaign cluster-campaign serve-smoke profile loc

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiments package replays whole paper figures and needs well over
# the default 10m per-package limit under the race detector.
race:
	$(GO) test -race -timeout 45m ./...

# check is the pre-merge gate: static analysis, the full suite under the
# race detector, and the plain tier-1 build+test pass.
check: vet race test

bench:
	$(GO) test -bench=. -benchmem ./...

# Engine microbenchmarks + the determinism golden test: the booking,
# charging and MMU fast paths (ns/op and allocs/op — the hot paths must
# stay allocation-free), the exact-vs-batched-vs-parallel golden test
# under the race detector, and the charge-amount table.
bench-engine:
	$(GO) test -run 'TestEngineDeterminismGolden|TestChargeAmountsPerOp|TestUseQuantaEquivalence' -race ./internal/workloads/ ./internal/pmem/ ./internal/sim/
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/mmu/ ./internal/pmem/

# Machine-readable serving baseline: runs the -server bench, writes
# BENCH_server.json, and regression-checks it against the committed
# BENCH_baseline.json (work counters exact, contention timings within
# tolerance). Refresh the baseline by copying BENCH_server.json over it.
bench-json:
	$(GO) run ./cmd/winebench -server -quick -clients 4 -json BENCH_server.json -check-against BENCH_baseline.json

# fxmark-style scalability sweep: every sharing case (shared-read,
# disjoint-write, overlap-write, private-append, meta-contended) over
# 1→128 threads, direct and through winefsd, regression-checked against the
# committed BENCH_scaling.json. Work counters are exact at every scale;
# contention timings and allocator-placement counters are tolerance-checked
# only at ≤16 threads, where the host can keep their distribution tight
# (see strictTimingThreads in cmd/winebench/scaling.go). Refresh the
# baseline with `go run ./cmd/winebench -scaling -json BENCH_scaling.json`.
bench-scaling:
	$(GO) run ./cmd/winebench -scaling -check-against BENCH_scaling.json

# Client page-cache effectiveness sweep: the CachedMix workload uncached
# vs cached (internal/pagecache), hard-gated on the cached re-read phase
# being ≥5x cheaper per read, and regression-checked against the committed
# BENCH_cache.json (work counters and cache hit/miss counts exact, virtual
# timings within tolerance). Refresh the baseline with
# `go run ./cmd/winebench -cache -quick -clients 4 -json BENCH_cache.json`.
bench-cache:
	$(GO) run ./cmd/winebench -cache -quick -clients 4 -check-against BENCH_cache.json

# Zero-copy mapped-read sweep: a 32MiB file mapped through internal/vmm
# on unaged vs Geriatrix-aged images for WineFS and ext4-DAX, hard-gated
# on ≥90% unaged hugepage coverage and on aged ext4-DAX mapped reads
# costing ≥3x the unaged ones, then regression-checked against the
# committed BENCH_mmap.json (work and fault counters exact, virtual
# timings within tolerance). Refresh the baseline with
# `go run ./cmd/winebench -mmap -json BENCH_mmap.json`.
bench-mmap:
	$(GO) run ./cmd/winebench -mmap -check-against BENCH_mmap.json

# Online-defragmenter bench (§3.5): an adversarially aged image (zero
# free aligned extents) is mapped and the background defragmenter must
# recover ≥90% of the unaged hugepage coverage on the live mapping
# without refaults; the interference phase must land in the paper's
# 25-40% unthrottled band (§4) and stay ≤10% under the duty-cycle pacer.
# Regression-checked against the committed BENCH_defrag.json (coverage
# and migration work exact, virtual timings within tolerance). Refresh
# the baseline with `go run ./cmd/winebench -defrag -json BENCH_defrag.json`.
bench-defrag:
	$(GO) run ./cmd/winebench -defrag -check-against BENCH_defrag.json

# Tiered-storage graceful-degradation sweep: working sets of
# {0.5, 1, 1.5, 2}x PM capacity over a PM+SSD mount vs an all-in-PM
# control, 90/10 hotspot mix with interleaved migration passes.
# Hard gates: working sets that fit keep ≥75% of control throughput, a
# 2x working set keeps ≥25% (the heat-driven placement must hold the hot
# set in PM) and must have spilled at setup, and cold misses must show
# slow-device traffic charged at slow-device cost. Regression-checked
# against the committed BENCH_tier.json (work/migration counters exact,
# virtual timings within tolerance). Refresh the baseline with
# `go run ./cmd/winebench -tier -json BENCH_tier.json`.
bench-tier:
	$(GO) run ./cmd/winebench -tier -check-against BENCH_tier.json

# Replication overhead on the ServerMix baseline: the same fan-out runs
# plain and against a synchronous 2-replica cluster, hard-gated at ≤65%
# overhead on the summed client spans (the sync charge model itself costs
# ≈55%) and on the replicas ending byte-identical to the primary,
# then regression-checked against the committed BENCH_replicated.json
# (op counts and resyncs exact, record stream and spans within tolerance).
# Refresh the baseline with
# `go run ./cmd/winebench -replicated -clients 8 -json BENCH_replicated.json`.
bench-replicated:
	$(GO) run ./cmd/winebench -replicated -clients 8 -check-against BENCH_replicated.json

# The page-cache + lease coherence suite under the race detector,
# including the 8-concurrent-session storm (TestCacheRace8Sessions).
cache-race:
	$(GO) test -race -run 'TestCache|TestLease|TestRevoke|TestTwoSession|TestHit|TestDirty|TestLRU|TestCanonical|TestDenied|TestClose' ./internal/pagecache/ ./internal/fileserver/

# The mmap subsystem under the race detector: the 8-thread shared-mapping
# storm with concurrent truncation (TestMmapRace8Threads), the
# truncate/unlink/punch invalidation tests, the vmm unit tests and the
# mapping/lease coherence tests on both the client cache and the server.
mmap-race:
	$(GO) test -race -run 'TestMmap|TestServerMapRevokesClientLease|TestRemoteMapNotSupported|TestReadOnlyMapping|TestPrivateMapping|TestShared|TestSync|TestCloseFlushes|TestWindowed|TestMapPath|TestMapRequires' ./internal/vmm/ ./internal/winefs/ ./internal/pagecache/ ./internal/fileserver/

# Background maintenance under the race detector, one target for the one
# mechanism: the relocate crash sweep (every caller torn at every fence
# epoch), the 8-thread suite racing the defragmenter against foreground
# writers, truncates and live mmaps (TestDefragRace8Threads), the
# migration-vs-mmap race (a demotion relocating blocks under a live
# mapping must drain in-flight accesses before freeing), the rewrite
# tests, spill/ENOSPC behaviour, the vmm re-promotion test, the
# slow-device/pool unit tests and the runner tests (one Step = defrag +
# rewriter + tier pass on one pacer, scraped concurrently).
maint-race:
	$(GO) test -race -run 'TestRelocate|TestDefrag|TestRepromote|TestRewrite|TestRunner|TestTier|TestSlowDevice|TestPool' ./internal/winefs/ ./internal/vmm/ ./internal/defrag/ ./internal/tier/

# Replication + failover under the race detector: the cluster engine's
# own tests (journal streaming, degraded mode, transparent failover,
# lease re-establishment) plus the campaign smoke slice.
cluster-race:
	$(GO) test -race -timeout 20m -run 'TestCluster|TestFailover|TestRecord|TestReplica|TestErrServerGone|TestLocalClose|TestShutdownCtx' ./internal/cluster/ ./internal/fileserver/ ./internal/crashmonkey/

# Boots winefsd on loopback TCP, drives a multi-client workload through
# fileserver.Client, and verifies the stats endpoint (end-to-end server
# smoke; also part of CI).
serve-smoke:
	$(GO) run ./cmd/winefsd -smoke

# The 1000-seed media-fault campaign (runs spread across host cores by
# sim.ParallelRunner; every other run mounts tiered and tears migration
# transactions) plus every poison/torn-write test, including the
# page-cache revoke-flush EIO path and the relocate crash sweep (defrag,
# tier and rewrite movers torn at every fence epoch).
fault-campaign:
	$(GO) test -v -run 'TestFaultCampaign|TestRepair|TestDegraded|TestPoisoned|TestWraparound|TestTorn|TestTierCrash|TestRelocateCrash' ./internal/crashmonkey/ ./internal/winefs/ ./internal/pmem/ ./internal/pagecache/

# The 1000-seed replicated-cluster fault campaign: partition, replica-lag,
# torn-stream and mid-failover crashes, asserting no panic → no silent
# divergence → convergence (repair/resync where needed). Runs overlap on
# the host (they are wall-clock timer-bound), which is what makes 1000
# seeds affordable.
cluster-campaign:
	$(GO) test -v -run 'TestClusterCampaign' ./internal/crashmonkey/

# Profile the scaling sweep: writes cpu/mem/block profiles next to the
# report and prints the top-10 hottest functions. This is the loop that
# drove the engine fast-path work — rerun it before optimising further.
profile:
	$(GO) run ./cmd/winebench -scaling -cpuprofile cpu.pprof -memprofile mem.pprof -blockprofile block.pprof
	$(GO) tool pprof -top -nodecount=10 cpu.pprof

# Non-test Go lines per package, and in total: "net-negative" as a number
# CI prints, not a claim in a PR body.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
