package main

// metric is one reported number: its name, unit and direction, and —
// for an end-to-end metric — how far it may worsen before a change is
// refused. BENCHMARK.json declares the same tables to the driver;
// metrics_test.go holds the two together.
type metric struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // share of the base median (end-to-end only)
	// floor is an absolute allowance -compare and -selfcheck add to the
	// bound, for a metric whose base can sit near zero. The driver knows
	// only the relative bound.
	floor float64
}

// endToEnd lists what a user of the system would see, on both clocks:
// host_* is what the engine costs the machine it runs on, sim_* is what
// the modelled WineFS costs its applications. Every workload reports
// every one.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25, floor: 0.5},
	{name: "host_kops_per_s", unit: "kops/s", bound: 0.25},
	{name: "host_allocs_per_op", unit: "allocs/op", lower: true, bound: 0.25, floor: 0.01},
	{name: "host_heap_live_mb", unit: "MiB", lower: true, bound: 0.10},
	{name: "sim_kops_per_vsec", unit: "kops/vsec", bound: 0.05},
	{name: "sim_lat_p50_ns", unit: "vns", lower: true, bound: 0.05},
	{name: "sim_lat_p99_ns", unit: "vns", lower: true, bound: 0.10},
	{name: "sim_pm_write_amp", unit: "ratio", lower: true, bound: 0.05},
	{name: "sim_huge_coverage_pct", unit: "%", bound: 0.05},
	{name: "sim_aligned_free_pct", unit: "%", bound: 0.10},
}

// perLayer lists the traced run's rows, written <layer>.<metric>:
// _vns is virtual nanoseconds, _hns host nanoseconds. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metric{
	{name: "driver.ops", unit: "count"},
	{name: "driver.op_fail_pct", unit: "%", lower: true},
	{name: "driver.self_hns_per_op", unit: "ns/op", lower: true},
	{name: "trace.overhead_pct", unit: "%", lower: true},
	{name: "trace.unattributed_pct", unit: "%", lower: true},
	{name: "sim.final_vns", unit: "vns", lower: true},
	{name: "sim.counters_crc32", unit: "crc32"},
	{name: "sim.lat_p999_ns", unit: "vns", lower: true},

	{name: "pagecache.calls", unit: "count"},
	{name: "pagecache.self_vns_per_call", unit: "vns/call", lower: true},
	{name: "pagecache.self_hns_per_call", unit: "ns/call", lower: true},
	{name: "pagecache.hit_pct", unit: "%"},
	{name: "pagecache.evictions", unit: "count", lower: true},
	{name: "pagecache.flush_bytes", unit: "bytes", lower: true},
	{name: "pagecache.revokes", unit: "count", lower: true},
	{name: "pagecache.flush_errors", unit: "count", lower: true},

	{name: "fileserver.rpcs", unit: "count", lower: true},
	{name: "fileserver.rpcs_per_op", unit: "ratio", lower: true},
	{name: "fileserver.self_vns_per_rpc", unit: "vns/call", lower: true},
	{name: "fileserver.self_hns_per_rpc", unit: "ns/call", lower: true},
	{name: "fileserver.errors", unit: "count", lower: true},

	{name: "vfs.lock_wait_vns_per_op", unit: "vns/op", lower: true},
	{name: "vfs.syscall_vns_per_op", unit: "vns/op", lower: true},
	{name: "vfs.locktable_hns_per_call", unit: "ns/call", lower: true},

	{name: "winefs.calls", unit: "count"},
	{name: "winefs.span_vns_per_call", unit: "vns/call", lower: true},
	{name: "winefs.span_hns_per_call", unit: "ns/call", lower: true},
	{name: "winefs.journal_vns_per_op", unit: "vns/op", lower: true},
	{name: "winefs.journal_commits", unit: "count", lower: true},
	{name: "winefs.journal_bytes_per_commit", unit: "bytes", lower: true},
	{name: "winefs.journal_aborts", unit: "count", lower: true},
	{name: "winefs.copy_vns_per_op", unit: "vns/op", lower: true},
	{name: "winefs.zero_vns_per_op", unit: "vns/op", lower: true},
	{name: "winefs.cow_copies", unit: "count", lower: true},
	{name: "winefs.alloc_splits", unit: "count", lower: true},
	{name: "winefs.alloc_steals", unit: "count", lower: true},
	{name: "winefs.rewrites", unit: "count"},
	{name: "winefs.other_vns_per_op", unit: "vns/op", lower: true},

	{name: "maint.steps", unit: "count"},
	{name: "maint.span_vns", unit: "vns", lower: true},
	{name: "maint.span_hns", unit: "ns", lower: true},
	{name: "maint.moved_blocks", unit: "blocks"},
	{name: "maint.vns_per_moved_block", unit: "ns/block", lower: true},
	{name: "maint.hns_per_moved_block", unit: "ns/block", lower: true},
	{name: "maint.throttle_vns", unit: "vns"},
	{name: "maint.recovered_2m", unit: "count"},
	{name: "maint.repromotions", unit: "count"},
	{name: "maint.skipped_busy", unit: "count", lower: true},
	{name: "maint.useful_pct", unit: "%"},
	{name: "maint.fg_slowdown_pct", unit: "%", lower: true},

	{name: "tier.slow_reads", unit: "count", lower: true},
	{name: "tier.slow_writes", unit: "count", lower: true},
	{name: "tier.slow_read_bytes", unit: "bytes", lower: true},
	{name: "tier.slow_write_bytes", unit: "bytes", lower: true},
	{name: "tier.spill_blocks", unit: "blocks", lower: true},
	{name: "tier.promoted_blocks", unit: "blocks"},
	{name: "tier.demoted_blocks", unit: "blocks"},
	{name: "tier.fault_promotions", unit: "count"},
	{name: "tier.pm_resident_pct", unit: "%"},
	{name: "tier.slow_read4k_hns", unit: "ns/call", lower: true},

	{name: "vmm.accesses", unit: "count"},
	{name: "vmm.span_vns_per_access", unit: "vns/call", lower: true},
	{name: "vmm.span_hns_per_access", unit: "ns/call", lower: true},
	{name: "vmm.huge_faults", unit: "count"},
	{name: "vmm.base_faults", unit: "count", lower: true},
	{name: "vmm.promotions", unit: "count"},
	{name: "vmm.msync_calls", unit: "count", lower: true},
	{name: "vmm.msync_bytes", unit: "bytes", lower: true},
	{name: "vmm.window_remaps", unit: "count", lower: true},
	{name: "vmm.sigbus", unit: "count", lower: true},

	{name: "mmu.tlb_miss_pct", unit: "%", lower: true},
	{name: "mmu.llc_miss_pct", unit: "%", lower: true},
	{name: "mmu.pagewalk_vns_per_access", unit: "vns/call", lower: true},
	{name: "mmu.fault_vns_per_access", unit: "vns/call", lower: true},
	{name: "mmu.access64_hns", unit: "ns/call", lower: true},

	{name: "pmem.read_bytes", unit: "bytes", lower: true},
	{name: "pmem.write_bytes", unit: "bytes", lower: true},
	{name: "pmem.host_mb", unit: "MiB", lower: true},
	{name: "pmem.write4k_hns", unit: "ns/call", lower: true},
	{name: "pmem.read4k_hns", unit: "ns/call", lower: true},
	{name: "pmem.persist64_hns", unit: "ns/call", lower: true},

	{name: "sim.resource_use_hns", unit: "ns/call", lower: true},

	{name: "geriatrix.files_created", unit: "count"},
	{name: "geriatrix.bytes_written", unit: "bytes"},
	{name: "geriatrix.hns_per_file_op", unit: "ns/op", lower: true},
	{name: "geriatrix.final_util_pct", unit: "%"},

	{name: "host.cpu_us_per_op", unit: "us/op", lower: true},
	{name: "host.gc_cpu_pct", unit: "%", lower: true},
	{name: "host.gc_cycles", unit: "count", lower: true},
	{name: "host.heap_mb", unit: "MiB", lower: true},
	{name: "host.wall_s", unit: "s", lower: true},
	{name: "host.peak_rss_mb", unit: "MiB", lower: true},
}

// workloadDef names a workload, says why it exists, and fixes its
// size: opsPerSecond is the measured phase's operation count for each
// second of --seconds, calibrated once on the 2-core sandbox so that
// the phase lasts about that long there. The count is a function of
// the arguments alone — never of how fast the host happens to be — so
// virtual-clock results compare exactly across commits.
type workloadDef struct {
	name         string
	why          string
	opsPerSecond int64
	setup        func(params) (*stack, error)
	// spansPerOp bounds the spans one operation can leave in a traced
	// run; it sizes the tracer.
	spansPerOp float64
}

var workloads = []workloadDef{
	{
		name:         "mmap_aged",
		why:          "mapped loads and stores on an aged image: vmm, mmu and pmem do the work, journal, locks and RPC idle",
		opsPerSecond: 2_700_000, spansPerOp: 1.1,
		setup: setupMmapAged,
	},
	{
		name:         "posix_aged",
		why:          "file syscalls on the same aged image: vfs, journal, allocator and the flush path work, vmm and mmu idle",
		opsPerSecond: 180_000, spansPerOp: 1.1,
		setup: setupPosixAged,
	},
	{
		name:         "srv_cached",
		why:          "two cached clients on one file server: pagecache and fileserver dominate, the one contended workload",
		opsPerSecond: 300_000, spansPerOp: 4,
		setup: setupSrvCached,
	},
	{
		name:         "maint_tiered",
		why:          "foreground I/O beside defrag, tier migration and rewriting on a tiered, adversarially aged mount",
		opsPerSecond: 400_000, spansPerOp: 2,
		setup: setupMaintTiered,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
