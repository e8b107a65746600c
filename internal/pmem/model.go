package pmem

// CostModel holds the latency/bandwidth parameters of the simulated
// persistent-memory device and the memory subsystem around it. Defaults are
// calibrated to the numbers the paper reports for Intel Optane DC PMM
// (§2.1, §2.2): 64-byte accesses cost 100–200ns, page faults cost 1–2µs,
// PM read bandwidth is ~3× write bandwidth, and a single thread streams
// writes at a few GB/s.
//
// The model splits every bulk transfer into two components:
//
//   - a local, per-thread cost (CPU issuing the copy) so a single thread
//     tops out at a realistic per-core rate, and
//   - an occupation of the device's shared bandwidth resource so that many
//     threads together saturate at the device's aggregate rate.
//
// A single thread pays both in sequence: the port hold is booked after the
// copy on the same clock (TestChargeAmountsPerOp pins this). So its
// effective rate is below either parameter alone: a 1 MiB WriteNT costs
// 524,388 vns, 2.00 GB/s (0.25 ns/B copy plus the 4 GB/s hold), and a
// 1 MiB Read 230,986 vns, 4.54 GB/s (0.12 ns/B plus the 10 GB/s hold).
type CostModel struct {
	// ReadLat64 is the latency of one 64B random read from PM (ns).
	ReadLat64 int64
	// WriteLat64 is the latency of one 64B write reaching the PM write
	// queue (ns).
	WriteLat64 int64
	// CopyWriteNSPerByte is the per-thread cost of streaming data to PM:
	// 0.25 ns/B, 4 GB/s for the copy alone. With the WriteBandwidth hold
	// booked after it, one thread writes at 2.00 GB/s (see above).
	CopyWriteNSPerByte float64
	// CopyReadNSPerByte is the per-thread cost of streaming data from PM:
	// 0.12 ns/B; one thread reads at 4.54 GB/s with the ReadBandwidth hold.
	CopyReadNSPerByte float64
	// ReadBandwidth / WriteBandwidth are the device's aggregate rates in
	// bytes per second (paper: write bw ≈ 1/3 read bw).
	ReadBandwidth  float64
	WriteBandwidth float64
	// FlushLat is the cost of a clwb of one cache line (ns).
	FlushLat int64
	// FenceLat is the cost of an sfence (ns).
	FenceLat int64
	// RemoteFactor multiplies access costs that cross NUMA nodes.
	RemoteFactor float64

	// Memory-subsystem parameters, consumed by internal/mmu.

	// BaseFaultNS is the kernel overhead of handling one 4KiB page fault,
	// excluding any file-system work such as allocation or zeroing.
	BaseFaultNS int64
	// HugeFaultNS is the kernel overhead of handling one 2MiB hugepage fault.
	HugeFaultNS int64
	// PageWalkNS is the cost of a TLB miss page-table walk when the walked
	// entries are cache-resident.
	PageWalkNS int64
	// PageWalkMemNS is the extra cost when walk entries must come from DRAM.
	PageWalkMemNS int64
	// LLCHitNS is the latency of an access served by the last-level cache.
	LLCHitNS int64
	// DRAMLat is the latency of a DRAM access (page-table reads).
	DRAMLat int64
	// ZeroNSPerByte is the cost of zero-filling freshly allocated PM.
	ZeroNSPerByte float64

	// TLB geometry: entry counts for 4KiB and 2MiB translations. Modern
	// second-level TLBs share ~1536 entries; hugepage entries each cover
	// 512× the reach.
	TLBEntries4K int
	TLBEntries2M int
	// LLCBytes is the modelled last-level cache capacity. Scaled down from
	// the test machine's ~38MiB in proportion to the scaled working sets.
	LLCBytes int64
	// LLCWays is the cache associativity.
	LLCWays int

	// SyscallNS is the fixed cost of trapping into the kernel and back,
	// plus VFS dispatch (§2.1: syscalls spend 11× more time in the kernel).
	SyscallNS int64
}

// DefaultModel returns the Optane-calibrated cost model used by every
// experiment unless a test overrides specific fields.
func DefaultModel() CostModel {
	return CostModel{
		ReadLat64:          300,
		WriteLat64:         100,
		CopyWriteNSPerByte: 0.25,
		CopyReadNSPerByte:  0.12,
		ReadBandwidth:      10e9,
		WriteBandwidth:     4e9,
		FlushLat:           40,
		FenceLat:           30,
		RemoteFactor:       2.0,
		BaseFaultNS:        1500,
		HugeFaultNS:        2600,
		PageWalkNS:         70,
		PageWalkMemNS:      220,
		LLCHitNS:           42,
		DRAMLat:            85,
		ZeroNSPerByte:      0.2,
		TLBEntries4K:       1536,
		TLBEntries2M:       1536,
		LLCBytes:           8 << 20,
		LLCWays:            16,
		SyscallNS:          600,
	}
}
