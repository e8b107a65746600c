GO ?= go

.PHONY: all build test check race vet bench-engine bench-pair bench-gates trajectory-check bench-json bench-scaling bench-cache bench-replicated bench-mmap bench-defrag bench-tier bench-paper cache-race mmap-race maint-race cluster-race fault-campaign cluster-campaign crash-verdicts serve-smoke profile profile-posix host-layers loc knobs deadcode examples

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

# Engine microbenchmarks + the determinism golden test: the booking,
# charging and MMU fast paths, the cached serving path and the journaled
# POSIX path (ns/op and allocs/op — the hot paths must stay allocation-free,
# and the pins say so: a cached hit, an evicting miss, a threshold flush and
# an fsync of eight dirty pages at 0 allocations, a 4KiB miss through cache,
# client and server at ≤2, a write at the dirty bound no dearer in a 16x
# larger cache — flush and eviction victims come off the backs of the
# active/inactive lists and their dirty lists, never from a scan; stat, read,
# in-place and copy-on-write overwrite, append and rename on a fragmented
# mount at 0, create+append+close+unlink and a whole file life at 3 (what a
# file keeps: its inode, File and lock object), the three lock modes at 0, a
# recycling tree at a steady size at 0, a base and a hugepage fault on a
# 4,096-extent WineFS file and on a zero-on-fault-split ext4-DAX file at 0,
# BenchmarkFaultFragmented the first of them), a slow-tier overwrite of a
# backed page, a just-discarded one included, at 0, the
# exact-vs-batched-vs-parallel golden test and the calendars, range locks,
# extent list and the MMU's flat TLB/LLC arrays against their obvious models (the calendars' and the
# extent list's with resources dropped and files unlinked mid-replay, so
# the storage they recycle is checked too), the recycler itself and a
# release after Drop that must miss the reused number's lock, all under
# the race detector, and the charge-amount table.
bench-engine:
	$(GO) test -run 'TestEngineDeterminismGolden|TestChargeAmountsPerOp|TestUseQuantaEquivalence|TestCachedHitsDoNotAllocate|TestFsyncDoesNotAllocate|TestDirectReadMissAllocs|TestReopenAllocations|TestPosixPathAllocations|TestLocksDoNotAllocate|TestFaultsDoNotAllocate|TestPoisonedStoresDoNotAllocate|TestNodeRecycling|AgainstModel|TestExtentListOrderProperty|TestUnlockAfterDropMissesTheReusedLock|TestGrowReusesZeroedStorage|TestRetentionBoundedByBytes|TestConcurrentOwners|TestSlowDeviceWritesDoNotAllocate' -race ./internal/workloads/ ./internal/pmem/ ./internal/mmu/ ./internal/sim/ ./internal/pagecache/ ./internal/fileserver/ ./internal/winefs/ ./internal/vfs/ ./internal/rbtree/ ./internal/recycle/ ./internal/tier/
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
# With PR=<n> it then runs one --trace 1 run a side, if a traced table of
# TRAJECTORY.json has a column of WORKLOAD (cmd/trajectory traced lists
# them), and records PR n's points of WORKLOAD there through
# cmd/trajectory: each metric's median over a side's runs, the traced
# tables' from the traced pair, replacing the PR's earlier points of that
# workload and seed. It
# prints EXPERIMENTS.md's per-PR tables from the record again; LABEL sets
# the PR's "what it changed" (a PR's first workload needs one).
#   make bench-pair BASE=HEAD WORKLOAD=posix_aged PAIRS=3 PR=<n> LABEL='what it changed'
PAIRS ?= 10
SEED ?= 1
PAIR_OUT ?= .bench_pair
bench-pair:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1] [PAIR_OUT=dir] [PR=<n> [LABEL='what it changed']]"; exit 2; }
	@set -e; here=$$PWD; rm -rf $(PAIR_OUT); mkdir -p $(PAIR_OUT)/base; out=$$(cd $(PAIR_OUT) && pwd); \
	git archive $(BASE) | tar -x -C $$out/base; \
	run() { \
		(cd $$1 && bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 --trace $$3 -out $$2) >$$out/last.log 2>&1 || { cat $$out/last.log; exit 1; }; \
		awk '$$1 == "host_kops_per_s" || $$1 == "sim_kops_per_vsec" { printf "  %s %s %s", $$1, $$2, $$3 } END { print "" }' $$out/last.log; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			printf 'pair %2d %-6s' $$i $$side; \
			if [ $$side = base ]; then run $$out/base $$out/base.jsonl 0; else run $$here $$out/change.jsonl 0; fi; \
		done; \
	done; \
	$(GO) run ./benchmark -compare $$out/base.jsonl $$out/change.jsonl; \
	if [ -n "$(PR)" ]; then \
		traced=$$($(GO) run ./cmd/trajectory traced); \
		if printf '%s\n' $$traced | grep -qx '$(WORKLOAD)'; then \
			printf 'traced  base  '; run $$out/base $$out/base.trace.jsonl 1; \
			printf 'traced  change'; run $$here $$out/change.trace.jsonl 1; \
		fi; \
		$(GO) run ./cmd/trajectory -pr $(PR) -label "$$LABEL" $$out; \
	fi

# The eight regression gates, one table: target, winebench flags, committed
# baseline. Each runs its bench, prints the verdicts of the claims about its
# report (the rows of internal/bench/claims.go) and fails on any that does
# not hold, then diffs the run against the baseline through internal/bench:
# work counters exact, contention-derived timings within tolerance
# (DESIGN.md "Bench reports" has the field classes and why each rule
# exists). None writes a file; refresh one baseline by running its line
# with `-json BENCH_x.json` in place of `-check-against BENCH_x.json`.
#   json        4-client ServerMix serving baseline
#   scaling     fxmark sharing cases x 1→128 threads, direct and via winefsd;
#               timings and allocator placement compared only at ≤16 threads
#   cache       CachedMix uncached vs cached; cached re-reads ≥5x cheaper;
#               HotScan: ≥95% of hot re-reads hit through a 4-cache scan
#   mmap        mapped reads unaged vs aged (Figure 1): ≥90% unaged hugepage
#               coverage, aged ext4-DAX ≥3x slower
#   defrag      §3.5 defragmenter: ≥90% coverage recovered on a live mapping;
#               the paper's §4 rows, measured nowhere else: the unthrottled
#               pass rewrites the fragmented file and costs the foreground
#               25-40%, ≤10% paced
#   tier        PM+SSD at 0.5-2x PM working sets vs all-PM: ≥75% when it
#               fits, ≥25% at 2x, cold misses charged at slow-device cost;
#               1.5x behind 0.5x PM of never-read files keeps ≥90% of 1.5x
#   replicated  2 sync replicas on ServerMix: ≤65% summed-span overhead,
#               replicas byte-identical
#   paper       the paper's figures, Table 2, §4's HPC profile, §5.2 and
#               §3.4's two design ablations in quick mode (winebench -run
#               all, ~8 s): every value exact except the multi-threaded
#               Figure 9 Filebench/pgbench, Figure 10 and ablation journal
#               points, recorded as Info; CrashMonkey must find no failure.
# EXPERIMENTS.md prints every gate's committed report block by block:
# after re-recording one, paste the blocks that
# TestExperimentsPrintsTheReport (go test ./cmd/winebench) prints.
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

# The per-PR tables of EXPERIMENTS.md are printed from TRAJECTORY.json
# (cmd/trajectory; make bench-pair PR=<n> adds a PR's points) and cannot
# silently stop: the newest ISSUE N that CHANGES.md names must have points
# in every table, and every <!-- trajectory NAME --> block must be what
# the record prints.
trajectory-check:
	@$(GO) run ./cmd/trajectory

# Page-cache and lease tests under -race; make race runs them too.
cache-race:
	$(GO) test -race -run 'TestCache|TestLease|TestRevoke|TestTwoSession|TestHit|TestDirty|TestLRU|TestCanonical|TestDenied|TestClose|TestModel|TestCheckInvariant|TestScan' ./internal/pagecache/ ./internal/fileserver/

# Mapping tests under -race; make race runs them too.
mmap-race:
	$(GO) test -race -run 'TestMmap|TestConformanceMmapShootdown|TestServerMapRevokesClientLease|TestRemoteMapNotSupported|TestReadOnlyMapping|TestPrivateMapping|TestShared|TestSync|TestCloseFlushes|TestWindowed|TestMapPreload|TestMapRequires' ./internal/vmm/ ./internal/winefs/ ./internal/pagecache/ ./internal/fileserver/ ./internal/fstest/

# Defrag, rewrite, tier and allocator tests under -race; make race runs them too.
maint-race:
	$(GO) test -race -run 'TestRelocate|TestDefrag|TestRepromote|TestRewrite|TestRunner|TestTier|TestHeat|TestSlowDevice|TestPool|TestFailedWriteLeavesNoTrace' ./internal/winefs/ ./internal/vmm/ ./internal/defrag/ ./internal/tier/ ./internal/alloc/

# Replication and promotion tests under -race; make race runs them too.
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

# Functions no binary runs. Every main package of the module (go list, so a
# new binary is never missed) is built with inlining off, so nothing is
# inlined away, and its text symbols are read with go tool nm; a function
# declared in a non-test file under internal/ or cmd/ (benchmark/ is the
# benchmark's own) that none of them links is listed as "lines pkg.Func".
# A cmd/X function is matched against cmd/X's binary, where nm names its
# package main. A generic instantiation counts as its base function, a
# closure, go or defer wrapper and method value as the function that makes
# it, and a String or Error method as linked: fmt calls them through an
# interface. Each listed function must be named in deadcode.allow, with a
# test that needs it and one of the reasons at the top of that file; the
# target fails on one that is not, and on an entry that is linked now, is
# gone, names no test or gives another reason.
deadcode:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; mod=$$($(GO) list -m); \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) build -gcflags=all=-l -o $$tmp/bin $$p; echo $$p >> $$tmp/bins; \
		$(GO) tool nm $$tmp/bin | awk -v p=$$p -v mod=$$mod '$$2 != "T" && $$2 != "t" { next } \
			{ s = $$0; sub(/^ *[0-9a-f]+ [Tt] /, "", s); \
			  if (index(s, "main.") == 1) s = p substr(s, 5); else if (index(s, mod "/") != 1) next; \
			  if (index(s, "[")) { o = ""; d = 0; n = length(s); \
				for (i = 1; i <= n; i++) { c = substr(s, i, 1); if (c == "[") d++; else if (c == "]") d--; else if (!d) o = o c } \
				s = o } \
			  gsub(/[()*]/, "", s); sub(/-fm$$/, "", s); \
			  while (sub(/\.(func|deferwrap|gowrap)[0-9]+$$/, "", s) || sub(/\.[0-9]+$$/, "", s)) ; \
			  print s }'; \
	done | sort -u > $$tmp/linked; \
	$(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{$$.ImportPath}}{{"\n"}}{{end}}' ./internal/... ./cmd/... > $$tmp/files; \
	awk 'NR == FNR { ip[$$1] = $$2; next } \
		/^func / { l = $$0; sub(/^func /, "", l); r = ""; \
			if (l ~ /^\(/) { r = l; sub(/\).*/, "", r); sub(/\[.*/, "", r); n = split(r, w, /[ *(]+/); r = w[n] "."; sub(/^[^)]*\) */, "", l) } \
			sub(/[[(].*/, "", l); key = ip[FILENAME] "." r l; start = FNR; \
			if ($$0 ~ /}$$/) print key, 1; else open = 1; next } \
		open && /^}/ { print key, FNR - start + 1; open = 0 }' $$tmp/files $$(cut -d' ' -f1 $$tmp/files) > $$tmp/decls; \
	find . -name '*_test.go' ! -path './.bench_*' | xargs grep -ho '^func Test[A-Za-z0-9_]*' | cut -c6- > $$tmp/tests; \
	awk -v bins=$$(wc -l < $$tmp/bins) ' \
		FILENAME == ARGV[1] { linked[$$1] = 1; next } \
		FILENAME == ARGV[2] { test[$$1] = 1; next } \
		FILENAME == ARGV[3] { f = $$1; sub(/^.*\//, "", f); decls++; \
			if ($$1 in linked || f ~ /\.[A-Za-z0-9_]+\.(String|Error)$$/) live[f] = 1; else { dead[f] = $$2; ndead++ } next } \
		/^#/ || NF == 0 { next } \
		{ allowed[$$1] = 1; \
		  if (!($$1 in dead) && !($$1 in live)) { bad++; print "deadcode.allow: " $$1 " is gone" } \
		  else if ($$1 in live) { bad++; print "deadcode.allow: " $$1 " is linked now" } \
		  if (!($$2 in test)) { bad++; print "deadcode.allow: " $$1 " names no test " $$2 } \
		  if ($$3 != "support:" && $$3 != "reference:" && !($$3 == "paper" && $$4 ~ /^§[0-9.]+:$$/)) { bad++; print "deadcode.allow: " $$1 ": no allowed reason" } } \
		END { for (f in dead) if (!(f in allowed)) { printf "%5d %s\n", dead[f], f | "sort -k2"; bad++ } close("sort -k2"); \
			printf "deadcode: %d functions under internal/ and cmd/, %d linked by none of %d binaries", decls, ndead, bins; \
			if (bad) { printf "; %d not as deadcode.allow says\n", bad; exit 1 } print ", each named in deadcode.allow" }' \
		$$tmp/linked $$tmp/tests $$tmp/decls deadcode.allow

# Settable knobs: per package, the fields declared in non-test
# `type …Config struct` and `type …Options struct` blocks under internal/
# and cmd/ (`A, B int` is two); per cmd/ binary, its command-line flags,
# one per flag.X or flag.XVar call site in a non-test file (a loop that
# declares a family of flags is one site, one choice); then each total.
# Every knob is a setting that tests and benchmarks must cover, so the
# numbers belong in the log.
knobs:
	@find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk ' \
		FNR == 1 { body = 0; d = FILENAME; sub(/\/[^\/]*$$/, "", d) } \
		/^type [A-Za-z0-9_]*(Config|Options) struct \{$$/ { body = 1; next } \
		body && /^}/ { body = 0; next } \
		body { sub(/\/\/.*/, ""); if (NF == 0) next; k = 1; for (i = 1; i < NF && $$i ~ /,$$/; i++) k++; n[d] += k; seen[d] = 1; t += k; next } \
		d ~ /^cmd\// { l = $$0; sub(/^[ \t]*\/\/.*/, "", l); \
			k = gsub(/flag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(/, "", l); \
			if (k) { f[d] += k; seen[d] = 1; tf += k } } \
		END { printf "%7s %7s\n", "fields", "flags"; for (d in seen) printf "%7d %7d %s\n", n[d], f[d], d; \
			printf "%7d %7d total\n", t, tf }' | sort -k3
