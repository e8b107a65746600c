GO ?= go

.PHONY: all build test check race vet bench bench-engine bench-pair bench-gates trajectory-check bench-json bench-scaling bench-cache bench-replicated bench-mmap bench-defrag bench-tier bench-paper cache-race mmap-race maint-race cluster-race fault-campaign cluster-campaign crash-verdicts serve-smoke profile profile-posix host-layers loc knobs examples

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

# The four runnable examples end to end; a non-zero exit from any fails the
# target. Each takes about a second.
examples:
	@for e in quickstart aging kvstore crashrecovery; do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# Engine microbenchmarks + the determinism golden test: the booking,
# charging and MMU fast paths, the cached serving path and the journaled
# POSIX path (ns/op and allocs/op — the hot paths must stay allocation-free,
# and the pins say so: a cached hit, an evicting miss, a threshold flush and
# an fsync of eight dirty pages at 0 allocations, a 4KiB miss through cache,
# client and server at ≤2, a write at the dirty bound no dearer in a 16x
# larger cache — flush and eviction victims come off the backs of the
# active/inactive lists and their dirty lists, never from a scan; stat, read,
# in-place and copy-on-write overwrite, append and rename on a fragmented
# mount at 0, create+append+close+unlink and a whole file life at 4 (what a
# file keeps: its inode, File and lock object, and the orphaned lock's one
# span), the three lock modes at 0, a
# recycling tree at a steady size at 0, a base and a hugepage fault on a
# 4,096-extent WineFS file and on a zero-on-fault-split ext4-DAX file at 0,
# BenchmarkFaultFragmented the first of them), the exact-vs-batched-vs-parallel
# golden test and the calendars, range locks, extent list and the MMU's
# flat TLB/LLC arrays against their obvious models (the calendars' and the
# extent list's with resources dropped and files unlinked mid-replay, so
# the storage they recycle is checked too), the recycler itself and a
# release after Drop that must miss the reused number's lock, all under
# the race detector, and the charge-amount table.
bench-engine:
	$(GO) test -run 'TestEngineDeterminismGolden|TestChargeAmountsPerOp|TestUseQuantaEquivalence|TestCachedHitsDoNotAllocate|TestFsyncDoesNotAllocate|TestDirectReadMissAllocs|TestPosixPathAllocations|TestLocksDoNotAllocate|TestFaultsDoNotAllocate|TestPoisonedStoresDoNotAllocate|TestNodeRecycling|AgainstModel|TestExtentListOrderProperty|TestUnlockAfterDropMissesTheReusedLock|TestGrowReusesZeroedStorage|TestRetentionBoundedByBytes|TestConcurrentOwners' -race ./internal/workloads/ ./internal/pmem/ ./internal/mmu/ ./internal/sim/ ./internal/pagecache/ ./internal/fileserver/ ./internal/winefs/ ./internal/vfs/ ./internal/rbtree/ ./internal/recycle/
	$(GO) test -run 'TestWriteAtDirtyBoundIsO1|TestRLockFlatInCalendarLength' ./internal/pagecache/ ./internal/vfs/
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/mmu/ ./internal/pmem/ ./internal/pagecache/ ./internal/fileserver/ ./internal/winefs/ ./internal/vfs/ ./internal/rbtree/ ./internal/alloc/

# benchmark/README.md "Claiming a gain", step 3, as one command: PAIRS
# alternating runs of one benchmark workload at BASE and at the working
# tree, then the before/after table of `benchmark -compare`. BASE is
# exported (git archive) into a throw-away directory under PAIR_OUT and
# each side builds into its own .bench_build, as the driver's runs do; the
# result lines stay in PAIR_OUT for the record. Each pair line shows both
# clocks: host_kops_per_s and sim_kops_per_vsec.
#   make bench-pair BASE=HEAD~1 WORKLOAD=srv_cached [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
PAIR_OUT ?= .bench_pair
bench-pair:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1] [PAIR_OUT=dir]"; exit 2; }
	@set -e; here=$$PWD; rm -rf $(PAIR_OUT); mkdir -p $(PAIR_OUT)/base; out=$$(cd $(PAIR_OUT) && pwd); \
	git archive $(BASE) | tar -x -C $$out/base; \
	run() { \
		(cd $$1 && bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace 0 -out $$2) >$$out/last.log 2>&1 || { cat $$out/last.log; exit 1; }; \
		awk '$$1 == "host_kops_per_s" || $$1 == "sim_kops_per_vsec" { printf "  %s %s %s", $$1, $$2, $$3 } END { print "" }' $$out/last.log; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			printf 'pair %2d %-6s' $$i $$side; \
			if [ $$side = base ]; then run $$out/base $$out/base.jsonl; else run $$here $$out/change.jsonl; fi; \
		done; \
	done; \
	$(GO) run ./benchmark -compare $$out/base.jsonl $$out/change.jsonl

# The eight regression gates, one table: target, winebench flags, committed
# baseline. Each runs its bench, enforces the mode's hard gates (see the
# top of cmd/winebench/<mode>.go), then diffs the run against the baseline
# through internal/bench: work counters exact, contention-derived timings
# within tolerance (DESIGN.md "Bench reports" has the field classes and why
# each rule exists). None writes a file; refresh one baseline by running
# its line with `-json BENCH_x.json` in place of `-check-against BENCH_x.json`.
#   json        4-client ServerMix serving baseline
#   scaling     fxmark sharing cases x 1→128 threads, direct and via winefsd;
#               timings and allocator placement compared only at ≤16 threads
#   cache       CachedMix uncached vs cached; cached re-reads ≥5x cheaper;
#               HotScan: ≥95% of hot re-reads hit through a 4-cache scan
#   mmap        mapped reads unaged vs aged (Figure 1): ≥90% unaged hugepage
#               coverage, aged ext4-DAX ≥3x slower
#   defrag      §3.5 defragmenter: ≥90% coverage recovered on a live mapping,
#               25-40% interference unthrottled (§4), ≤10% paced
#   tier        PM+SSD at 0.5-2x PM working sets vs all-PM: ≥75% when it
#               fits, ≥25% at 2x, cold misses charged at slow-device cost;
#               1.5x behind 0.5x PM of never-read files keeps ≥90% of 1.5x
#   replicated  2 sync replicas on ServerMix: ≤65% summed-span overhead,
#               replicas byte-identical
#   paper       the paper's figures, Table 2, §4 and §5.2 in quick mode
#               (winebench -run all, ~25 s): every value exact except the
#               multi-threaded Figure 9 Filebench/pgbench and Figure 10
#               points, recorded as Info; CrashMonkey must find no failure
GATE = $(GO) run ./cmd/winebench $(1) -check-against $(2)
bench-json:       ; $(call GATE,-server -quick -clients 4,BENCH_server.json)
bench-scaling:    ; $(call GATE,-scaling,BENCH_scaling.json)
bench-cache:      ; $(call GATE,-cache -quick -clients 4,BENCH_cache.json)
bench-mmap:       ; $(call GATE,-mmap,BENCH_mmap.json)
bench-defrag:     ; $(call GATE,-defrag,BENCH_defrag.json)
bench-tier:       ; $(call GATE,-tier,BENCH_tier.json)
bench-replicated: ; $(call GATE,-replicated -clients 8,BENCH_replicated.json)
bench-paper:      ; $(call GATE,-quick -cpus 4 -seed 42 -run all,BENCH_paper.json)
GATES = bench-json bench-cache bench-mmap bench-defrag bench-tier bench-replicated bench-scaling bench-paper

# All eight gates, each followed by its wall time (the CI job budget as a
# tracked number), then the trajectory check; every gate runs even after
# one fails.
bench-gates:
	@fail=0; for g in $(GATES); do \
		s=$$(date +%s%N); $(MAKE) --no-print-directory $$g || fail=1; \
		echo "== $$g: $$(( ($$(date +%s%N) - s) / 1000000 ))ms wall"; \
	done; $(MAKE) --no-print-directory trajectory-check || fail=1; exit $$fail

# The per-PR tables of EXPERIMENTS.md (header row "| PR | ...": the two
# "Host clock" tables and the virtual-clock maint_tiered and srv_cached
# ones) cannot silently stop: the newest ISSUE N that CHANGES.md names must have a row
# "| N |" in every one of them.
trajectory-check:
	@n=$$(grep -o 'ISSUE [0-9][0-9]*' CHANGES.md | sort -k2 -n | tail -1 | cut -d' ' -f2); \
	awk -v n="$$n" 'function close_table() { if (open && !seen) bad++; open = 0 } \
		/^\| PR \|/ { close_table(); open = 1; seen = 0; tables++; next } \
		open && /^\|/ { if (index($$0, "| " n " |") == 1) seen = 1; next } \
		{ close_table() } \
		END { close_table(); if (!tables || bad) { \
			printf "trajectory-check: %d of %d per-PR tables in EXPERIMENTS.md have no row for PR %s, the newest ISSUE in CHANGES.md\n", bad, tables, n; exit 1 } \
			printf "trajectory-check: PR %s has its row in all %d per-PR tables of EXPERIMENTS.md\n", n, tables }' EXPERIMENTS.md

# The page-cache + lease coherence suite under the race detector,
# including the 8-concurrent-session storm (TestCacheRace8Sessions, which
# audits each cache with CheckInvariant every round), the stale-lease
# regression (TestLeaseRefusedWhileWriteInFlight), the replacement policy's
# two bounds (TestScan*: a hot set of ¾ of the cache survives any scan, a
# set that fits is never evicted) and the 10⁵-operation replay against the
# two-slice reference policy (TestModelEquivalence: both lists' order,
# dirty marks, stub-FS calls, Stats and clocks after every operation).
cache-race:
	$(GO) test -race -run 'TestCache|TestLease|TestRevoke|TestTwoSession|TestHit|TestDirty|TestLRU|TestCanonical|TestDenied|TestClose|TestModel|TestCheckInvariant|TestScan' ./internal/pagecache/ ./internal/fileserver/

# The mmap subsystem under the race detector: the 8-thread shared-mapping
# storm with concurrent truncation (TestMmapRace8Threads), the
# truncate/unlink/punch invalidation tests, the vmm unit tests, the
# mapping/lease coherence tests on both the client cache and the server,
# two readers of one file's extent list beside its faults on all nine file
# systems (TestMmapExtentsTwoReaders), and truncate/unlink shootdown of
# mappings from both entry points on all nine (TestConformanceMmapShootdown).
mmap-race:
	$(GO) test -race -run 'TestMmap|TestConformanceMmapShootdown|TestServerMapRevokesClientLease|TestRemoteMapNotSupported|TestReadOnlyMapping|TestPrivateMapping|TestShared|TestSync|TestCloseFlushes|TestWindowed|TestMapPath|TestMapRequires' ./internal/vmm/ ./internal/winefs/ ./internal/pagecache/ ./internal/fileserver/ ./internal/fstest/

# Background maintenance under the race detector, one target for the one
# mechanism: the relocate crash sweep (every caller torn at every fence
# epoch), the 8-thread suite racing the defragmenter against foreground
# writers, truncates and live mmaps (TestDefragRace8Threads), the
# migration-vs-mmap race (a demotion relocating blocks under a live
# mapping must drain in-flight accesses before freeing; driven through
# migrateRun, since the pass itself pins mapped files), the three mover
# rules (TestTierThrottleNeverHoldsTheLock, TestTierPassPinsMappedFiles,
# TestHeatFollowsData), the dead-data rule and why it terminates
# (TestTierDeadBeforeTrickle, TestTierTrickleDoesNotThrash), the rewrite
# tests, spill/ENOSPC behaviour, the abort path every one of them shares
# with the foreground (TestFailedWriteLeavesNoTrace: a failed write,
# fallocate, truncate, create, mkdir or rename leaves DRAM, the allocator
# and the media where they were), the vmm re-promotion test, the
# slow-device/pool unit tests, the runner tests (one Step = defrag +
# rewriter + tier pass on one pacer, scraped concurrently) and the
# free-extent index every allocator in the tree runs on (internal/alloc:
# the differential against the bitmap model, the strictness and Check
# tests).
maint-race:
	$(GO) test -race -run 'TestRelocate|TestDefrag|TestRepromote|TestRewrite|TestRunner|TestTier|TestHeat|TestSlowDevice|TestPool|TestFailedWriteLeavesNoTrace' ./internal/winefs/ ./internal/vmm/ ./internal/defrag/ ./internal/tier/ ./internal/alloc/

# Replication + promotion under the race detector: the cluster engine's
# own tests (journal streaming, degraded mode, winefsd's promotion of a
# stopped replica, a replica that stops while a primary writes, the
# silent-divergence verdict, a baseline resync broken off and resumed),
# the cluster campaign and its smoke slice, and
# the frame codec over the in-memory pipe the replication stream rides
# (TestFrameRoundTrip: a frame above the pipe's 1 MiB buffer, bare and
# wrapped writer ends, the length bound).
cluster-race:
	$(GO) test -race -timeout 20m -run 'TestCluster|TestPromoteReplica|TestRecord|TestReplica|TestErrServerGone|TestLocalClose|TestShutdownCtx|TestFrameRoundTrip' ./internal/cluster/ ./internal/fileserver/ ./internal/crashmonkey/

# Boots winefsd on loopback TCP, drives a multi-client workload through
# fileserver.Client, and verifies the stats endpoint (end-to-end server
# smoke; also part of CI).
serve-smoke:
	$(GO) run ./cmd/winefsd -smoke

# The 1000-seed media-fault campaign (runs spread across host cores by
# sim.ParallelRunner; every other run mounts tiered and tears migration
# transactions) plus every poison/torn-write test, including the
# page-cache revoke-flush EIO path, the relocate crash sweep (defrag,
# tier and rewrite movers torn at every fence epoch), the one-reader
# verdict tests (TestImageVerdictsAgree: one corruption per on-media
# structure, Mount, Check and Repair held to one verdict;
# TestImageFuzzVerdictsAgree: the same over 600 seeded byte flips) and the
# tests that hold what a mount shows to what was acknowledged: the ACE
# workloads, fstest.Op data (Setup and Ops) whose Write and MapStore store
# crashmonkey.DataByte and everything else zeros, with their data
# operations (pwrite into holes, over bytes and across EOF, mapped stores,
# punch) crash-explored on relaxed and strict mounts against a state that
# includes file contents, every fence cut of each operation among them
# (TestSeq1, TestSeq2, TestStateSeesData), and TestRemountEquivalence (a
# seeded fstest.Gen sequence over every inode-changing operation, run
# through fstest.Apply; every few steps a crash mount and a clean remount
# must show the live mount's names, sizes, link counts and bytes), the
# vocabulary the campaign workloads are built from (TestApplyEveryKind:
# every fstest.Op kind on all nine file systems returns nil or
# vfs.ErrNotSupported, changes vfs.State unless it is an fsync, and closes
# every handle it opened; TestChurnConsistency: one seed, one sequence),
# and the journal's one transaction per operation (TestOnePassStoreOrder:
# one START and one COMMIT, every in-place metadata store after the fence
# that follows its DATA entry, COMMIT after them, no entry store over four
# lines, over an append, a create, a rename and a copy-on-write over 24
# extents; TestOnePassPoisonLeavesNoTrace: a poisoned header, record, chain
# pointer, dirent or valid byte fails the operation with EIO before
# anything is stored; TestFailedWrite: a write, fallocate, truncate,
# create, mkdir or rename that fails half-way leaves DRAM, the allocator
# and the media where they were; TestTxOverflowAbortsCleanly: an operation
# larger than the journal fails with ErrTxOverflow and stores nothing;
# TestWraparoundLargeOperation: one that does not fit before the journal's
# end wraps first and recovers at every fence), the one crash-state builder
# (TestRecording: Cut's ends, Crashes' subsets and draws, Torn's bounds)
# and the one device copy every crash state is (TestSnapshotIsADevice: a
# snapshot reads as its source from dirty pooled chunks, shares no bytes,
# poison or observer with it, and Restore drops the chunks the source
# does not back),
# fed by the device's one observer (TestTraceEpochs, TestObserverContract:
# which calls reach it; TestRecordRefusesAttachedObserver: Record never
# detaches a replicator; TestRecordConcurrentStores: two storing, fencing
# goroutines inside one Record, each store once, epochs never falling).
fault-campaign:
	$(GO) test -v -run 'TestFaultCampaign|TestRepair|TestDegraded|TestPoisoned|TestWraparound|TestTorn|TestTierCrash|TestRelocateCrash|TestImageVerdictsAgree|TestImageFuzzVerdictsAgree|TestSeq|TestStateSeesData|TestRemountEquivalence|TestOnePass|TestFailedWrite|TestTxOverflow|TestRecording|TestSnapshotIsADevice|TestTraceEpochs|TestObserverContract|TestRecordRefusesAttachedObserver|TestRecordConcurrentStores|TestApplyEveryKind|TestChurnConsistency' ./internal/crashmonkey/ ./internal/winefs/ ./internal/pmem/ ./internal/pagecache/ ./internal/fstest/

# The four crash verdicts of the paper's §5.2 evidence in one pass, with
# -count=1 so none comes from the test cache: the ACE Seq1 and Seq2 crash
# explorations, the 1000-run media-fault campaign and the 1000-run cluster
# campaign. It prints each test's summary lines and its wall time ("---
# PASS: TestSeq1 (1.25s)"); a change to crash states or to how they are
# built reports these before and after.
crash-verdicts:
	@out=$$($(GO) test -v -count=1 -run '^(TestSeq1|TestSeq2|TestFaultCampaign|TestClusterCampaign)$$' ./internal/crashmonkey/ 2>&1); st=$$?; \
		printf '%s\n' "$$out" | grep -v '^=== '; exit $$st

# The 1000-seed replicated-cluster fault campaign: partition, replica-lag,
# torn-stream and mid-failover crashes, asserting no panic → no silent
# divergence (sequences equal, bytes differ) → acked ⇒ visible on the
# promoted replica → convergence. A promotion is winefsd's: kill the
# primary, stop a replica, mount its image at epoch 2. Runs overlap on the
# host (they are wall-clock timer-bound), which is what makes 1000 seeds
# affordable.
cluster-campaign:
	$(GO) test -v -run 'TestClusterCampaign' ./internal/crashmonkey/

# Profile the scaling sweep: writes cpu/mem/block profiles next to the
# report and prints the top-10 hottest functions. This is the loop that
# drove the engine fast-path work — rerun it before optimising further.
profile:
	$(GO) run ./cmd/winebench -scaling -cpuprofile cpu.pprof -memprofile mem.pprof -blockprofile block.pprof
	$(GO) tool pprof -top -nodecount=10 cpu.pprof

# Profile the journaled POSIX path: BenchmarkPosixMix (the posix_aged
# operation mix on a fragmented strict mount, internal/winefs/bench_test.go)
# under the CPU and the allocation profiler, top 20 of each. Start here
# before optimising that path further; DESIGN.md §13 has the last tables.
profile-posix:
	$(GO) test -run xxx -bench BenchmarkPosixMix -benchtime 1000000x -cpuprofile posix_cpu.pprof -memprofile posix_mem.pprof -memprofilerate 64 -o winefs.test ./internal/winefs/
	$(GO) tool pprof -top -nodecount=20 winefs.test posix_cpu.pprof
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_objects winefs.test posix_mem.pprof

# Host CPU time by layer: the CPU profile PROFILE (default the one
# profile-posix writes) reduced by cmd/hostlayers to one row per package of
# this module, winefs split by file, and one for samples outside it; the
# shares sum to 100%. PROFILE=cpu.pprof reads what make profile wrote.
# With BASE=<rev>, both sides of a host claim: BenchmarkPosixMix profiled
# at BASE (exported with git archive under PAIR_OUT, as bench-pair does)
# and at the working tree, the same 10^6 operations each, and their rows
# side by side with the change's difference.
#   make host-layers BASE=HEAD~1
PROFILE ?= posix_cpu.pprof
host-layers:
	@set -e; if [ -z "$(BASE)" ]; then \
		$(GO) tool pprof -traces -lines $(PROFILE) | $(GO) run ./cmd/hostlayers; exit; \
	fi; \
	rm -rf $(PAIR_OUT); mkdir -p $(PAIR_OUT)/base; out=$$(cd $(PAIR_OUT) && pwd); \
	git archive $(BASE) | tar -x -C $$out/base; \
	for side in base change; do \
		if [ $$side = base ]; then dir=$$out/base; else dir=$$PWD; fi; \
		(cd $$dir && $(GO) test -run xxx -bench BenchmarkPosixMix -benchtime 1000000x \
			-cpuprofile $$out/$$side.pprof -o $$out/$$side.test ./internal/winefs/); \
		$(GO) tool pprof -traces -lines $$out/$$side.test $$out/$$side.pprof > $$out/$$side.traces 2>/dev/null; \
	done; \
	$(GO) run ./cmd/hostlayers $$out/base.traces $$out/change.traces

# Go lines per package, non-test next to test, and in total:
# "net-negative" as a number CI prints, not a claim in a PR body. The test
# column is there so a change that dedupes test code shows too.
loc:
	@find . -name '*.go' ! -path './.bench_build/*' ! -path './.bench_pair/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); seen[d] = 1; \
			if ($$2 ~ /_test\.go$$/) { tst[d] += $$1; tt += $$1 } else { n[d] += $$1; t += $$1 } } \
		END { printf "%7s %7s\n", "code", "test"; for (d in seen) printf "%7d %7d %s\n", n[d], tst[d], d; \
			printf "%7d %7d total\n", t, tt }' | sort -k3

# Settable knobs per package: the fields declared in non-test
# `type …Config struct` and `type …Options struct` blocks under internal/
# and cmd/ (`A, B int` is two), then the total. Every field is a setting
# that tests and benchmarks must cover, so the number belongs in the log.
knobs:
	@find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk ' \
		FNR == 1 { body = 0 } \
		/^type [A-Za-z0-9_]*(Config|Options) struct \{$$/ { body = 1; d = FILENAME; sub(/\/[^\/]*$$/, "", d); next } \
		body && /^}/ { body = 0; next } \
		body { sub(/\/\/.*/, ""); if (NF == 0) next; k = 1; for (i = 1; i < NF && $$i ~ /,$$/; i++) k++; n[d] += k; t += k } \
		END { for (d in n) printf "%5d %s\n", n[d], d; printf "%5d total\n", t }' | sort -k2
