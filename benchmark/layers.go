package main

import (
	"fmt"

	"repro/benchmark/tracefs"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pct(part, whole int64) float64 { return 100 * ratio(float64(part), float64(whole)) }

// layerMetrics fills r with every per-layer row the traced pass o
// yields. ref is the same pass untraced. Rows of a layer the workload
// never enters are zero: each layer has a home workload and an away
// one.
func layerMetrics(r *result, o, ref *outcome, tr *tracefs.Tracer) error {
	st, ops, c, sum := o.st, float64(o.ops), &o.cnt, &o.sum
	per := func(ns int64, n int64) float64 { return ratio(float64(ns), float64(n)) }

	// Driver and run: what the harness itself costs, what tracing costs,
	// and the witnesses that must be identical across commits for a
	// change that touches only the engine.
	var spanH int64
	for _, ctx := range append(clientCtxs(st), st.threads...) {
		if lane := tr.Lane(ctx); lane >= 0 {
			spanH += sum.LaneRootH[lane]
		}
	}
	p999, err := o.lat.quantile(0.999)
	if err != nil {
		return fmt.Errorf("p99.9: %w", err)
	}
	unattributed := sum.RootV - (c.SyscallNS + c.LockWaitNS + c.JournalNS + c.CopyNS + c.ZeroNS + c.PageWalkNS + c.FaultNS)
	if unattributed < 0 {
		unattributed = 0
	}
	r.notes = spanTable(sum)
	r.set("driver.ops", ops)
	r.set("driver.op_fail_pct", pct(o.failed, o.ops))
	r.set("driver.self_hns_per_op", per(o.clientNS-spanH, o.ops))
	r.set("trace.overhead_pct", 100*(ratio(ref.kops, o.kops)-1))
	r.set("trace.unattributed_pct", pct(unattributed, sum.RootV))
	r.set("sim.final_vns", float64(o.finalVNS))
	r.set("sim.counters_crc32", float64(countersCRC(c)))
	r.set("sim.lat_p999_ns", float64(p999))

	pc := &sum.Layers[tracefs.Pagecache]
	r.set("pagecache.calls", float64(pc.Calls))
	r.set("pagecache.self_vns_per_call", per(pc.SelfV, pc.Calls))
	r.set("pagecache.self_hns_per_call", per(pc.SelfH, pc.Calls))
	r.set("pagecache.hit_pct", pct(o.cache.Hits, o.cache.Hits+o.cache.Misses))
	r.set("pagecache.evictions", float64(o.cache.Evictions))
	r.set("pagecache.flush_bytes", float64(o.cache.FlushedBytes))
	r.set("pagecache.revokes", float64(o.cache.Revokes))
	r.set("pagecache.flush_errors", float64(o.cache.FlushErrors))

	rpc := &sum.Layers[tracefs.Fileserver]
	r.set("fileserver.rpcs", float64(o.rpcs))
	r.set("fileserver.rpcs_per_op", ratio(float64(o.rpcs), ops))
	r.set("fileserver.self_vns_per_rpc", per(rpc.SelfV, rpc.Calls))
	r.set("fileserver.self_hns_per_rpc", per(rpc.SelfH, rpc.Calls))
	r.set("fileserver.errors", float64(rpc.Failed))

	r.set("vfs.lock_wait_vns_per_op", per(c.LockWaitNS, o.ops))
	r.set("vfs.syscall_vns_per_op", per(c.SyscallNS, o.ops))

	// The winefs buckets are counter deltas taken at the edges of the
	// spans that enter winefs. They overlap today (journal time includes
	// PM traffic that copy time also counts), so the residual can be
	// negative; it is reported as it comes.
	wf := &sum.Layers[tracefs.Winefs]
	wb := wf.Buckets
	r.set("winefs.calls", float64(wf.Calls))
	r.set("winefs.span_vns_per_call", per(wf.SpanV, wf.Calls))
	r.set("winefs.span_hns_per_call", per(wf.SpanH, wf.Calls))
	r.set("winefs.journal_vns_per_op", per(wb.JournalNS, o.ops))
	r.set("winefs.journal_commits", float64(c.JournalCommits))
	r.set("winefs.journal_bytes_per_commit", per(c.JournalBytes, c.JournalCommits))
	r.set("winefs.journal_aborts", float64(c.JournalAborts))
	r.set("winefs.copy_vns_per_op", per(wb.CopyNS, o.ops))
	r.set("winefs.zero_vns_per_op", per(wb.ZeroNS, o.ops))
	r.set("winefs.cow_copies", float64(c.CoWCopies))
	r.set("winefs.alloc_splits", float64(c.AllocSplits))
	r.set("winefs.alloc_steals", float64(c.AllocSteals))
	r.set("winefs.rewrites", float64(c.Rewrites))
	r.set("winefs.other_vns_per_op",
		per(wf.SpanV-wb.SyscallNS-wb.LockWaitNS-wb.JournalNS-wb.CopyNS-wb.ZeroNS, o.ops))

	mt := &sum.Layers[tracefs.Maint]
	moved := c.DefragMigratedBlocks + c.TierPromotedBlocks + c.TierDemotedBlocks
	r.set("maint.steps", float64(mt.Calls))
	r.set("maint.span_vns", float64(mt.SpanV))
	r.set("maint.span_hns", float64(mt.SpanH))
	r.set("maint.moved_blocks", float64(moved))
	r.set("maint.vns_per_moved_block", per(mt.SpanV, moved))
	r.set("maint.hns_per_moved_block", per(mt.SpanH, moved))
	r.set("maint.throttle_vns", float64(st.maintThrottled))
	r.set("maint.recovered_2m", float64(c.DefragRecovered2M))
	r.set("maint.repromotions", float64(c.DefragRepromotions))
	r.set("maint.skipped_busy", float64(c.DefragSkippedBusy))
	r.set("maint.useful_pct", pct(st.maintUseful, st.maintSteps))
	r.set("maint.fg_slowdown_pct", 0)

	r.set("tier.slow_reads", float64(c.SlowReads))
	r.set("tier.slow_writes", float64(c.SlowWrites))
	r.set("tier.slow_read_bytes", float64(c.SlowReadBytes))
	r.set("tier.slow_write_bytes", float64(c.SlowWriteBytes))
	r.set("tier.spill_blocks", float64(c.AllocSpillBlocks))
	r.set("tier.promoted_blocks", float64(c.TierPromotedBlocks))
	r.set("tier.demoted_blocks", float64(c.TierDemotedBlocks))
	r.set("tier.fault_promotions", float64(c.TierFaultPromotions))
	r.set("tier.pm_resident_pct", pct(st.residentOps, st.dataOps))

	vm := &sum.Layers[tracefs.VMM]
	r.set("vmm.accesses", float64(vm.Calls))
	r.set("vmm.span_vns_per_access", per(vm.SpanV, vm.Calls))
	r.set("vmm.span_hns_per_access", per(vm.SpanH, vm.Calls))
	r.set("vmm.huge_faults", float64(c.VMMHugeFaults))
	r.set("vmm.base_faults", float64(c.VMMBaseFaults))
	r.set("vmm.promotions", float64(c.VMMPromotions))
	r.set("vmm.msync_calls", float64(c.VMMMsyncs))
	r.set("vmm.msync_bytes", float64(c.VMMMsyncBytes))
	r.set("vmm.window_remaps", float64(c.VMMWindowRemaps))
	r.set("vmm.sigbus", float64(st.mapFaults))

	r.set("mmu.tlb_miss_pct", pct(c.TLBMisses, c.TLBMisses+c.TLBHits))
	r.set("mmu.llc_miss_pct", pct(c.LLCMisses, c.LLCMisses+c.LLCHits))
	r.set("mmu.pagewalk_vns_per_access", per(vm.Buckets.PageWalkNS, vm.Calls))
	r.set("mmu.fault_vns_per_access", per(vm.Buckets.FaultNS, vm.Calls))

	r.set("pmem.read_bytes", float64(c.PMReadBytes))
	r.set("pmem.write_bytes", float64(c.PMWriteBytes))
	r.set("pmem.host_mb", o.fin.hostMB)

	r.set("geriatrix.files_created", float64(st.age.Created))
	r.set("geriatrix.bytes_written", float64(st.age.BytesWritten))
	r.set("geriatrix.hns_per_file_op", per(st.ageHostNS, st.age.Created+st.age.Deleted))
	r.set("geriatrix.final_util_pct", 100*st.age.FinalUtil)

	r.set("host.cpu_us_per_op", float64(o.h1.cpuNS-o.h0.cpuNS)/1e3/ops)
	r.set("host.gc_cpu_pct", 100*ratio(o.h1.gcCPUSec-o.h0.gcCPUSec, o.h1.allCPUSec-o.h0.allCPUSec))
	r.set("host.gc_cycles", float64(o.h1.numGC-o.h0.numGC))
	r.set("host.heap_mb", float64(o.h1.heapInuse)/(1<<20))
	r.set("host.wall_s", o.h1.at.Sub(o.h0.at).Seconds())
	r.set("host.peak_rss_mb", peakRSSMiB())
	return nil
}

// spanTable renders where the traced phase's time went, by layer and
// call: the detail behind the per-layer rows, and the shares README.md
// quotes for each workload's home and away layers.
func spanTable(sum *tracefs.Summary) []string {
	lines := []string{fmt.Sprintf("spans of the measured phase (%d top-level, %d virtual ns, %d host ns under them):",
		sum.Roots, sum.RootV, sum.RootH)}
	for l := tracefs.Layer(0); l < tracefs.NumLayers; l++ {
		ls := &sum.Layers[l]
		if ls.Calls == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-10s entered %d times: self %5.1f%% of virtual, %5.1f%% of host time; buckets %+v",
			l, ls.Calls, pct(ls.SelfV, sum.RootV), pct(ls.SelfH, sum.RootH), ls.Buckets))
		for op := tracefs.Op(0); op < tracefs.NumOps; op++ {
			if os := &sum.ByOp[l][op]; os.Calls > 0 {
				lines = append(lines, fmt.Sprintf("    %-12s %9d calls %10.0f vns/call %8.0f hns/call %5.1f%% of virtual time",
					op, os.Calls, ratio(float64(os.SpanV), float64(os.Calls)), ratio(float64(os.SpanH), float64(os.Calls)), pct(os.SpanV, sum.RootV)))
			}
		}
	}
	return lines
}

func clientCtxs(st *stack) []*simCtx {
	out := make([]*simCtx, len(st.clients))
	for i, c := range st.clients {
		out[i] = c.ctx
	}
	return out
}
