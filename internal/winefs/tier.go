package winefs

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// Tiered storage: WineFS can mount with a second, slow (SSD-like) device
// behind the PM partition. The global block space is extended past the PM
// partition: blocks [0, totalBlocks) are PM, blocks
// [slowBase, slowBase+slowBlocks) live on the slow device (slowBase is
// totalBlocks rounded up to a hugepage boundary so the two regions can
// never share a 2MiB chunk). Extent records address both regions with the
// same 3×uint32 encoding, so a file's map can mix tiers freely.
//
// Placement policy: all metadata (journals, inode tables, dirents,
// indirect blocks) is PM-only — the slow device is not byte-addressable
// and cannot hold in-place-updated 64-byte records. New data allocations
// prefer PM and spill to the slow tier when PM is past its high-water
// mark or out of space (allocData); per-extent heat counters track
// re-access, and TierPass migrates cold extents down / hot extents up
// through the same relocate primitive the defragmenter uses
// (relocate.go). An mmap fault on a slow extent promotes it
// synchronously — DAX mappings can only ever point at PM.
//
// Crash consistency: the slow pool is DRAM-only and rebuilt from the
// inode extent scan at every mount, so a crash mid-migration needs no
// slow-side recovery — the journaled extent-map commit is the only
// decision point, and slow blocks orphaned by a rolled-back demotion
// return to the pool automatically at the next mount.

// tierSwapFactor is the pairwise hysteresis for swap-mode migration: a
// slow extent is promoted only if its heat is at least this many times
// the heat of every PM extent demoted to make room for it.
const tierSwapFactor = 4

// tierPromoteDensityShift sets the size-proportional promotion bar: an
// extent qualifies only with heat >= length >> shift (one touch per 16
// blocks since the last aging). A swap copies the whole extent both
// ways, so the reheat has to scale with the copy or the swap can never
// pay for itself — a fixed bar lets background noise on big extents
// masquerade as heat.
const tierPromoteDensityShift = 4

// TierOptions attaches a slow tier to a Mkfs/Mount.
type TierOptions struct {
	// Slow is the second-tier device. Required.
	Slow *tier.SlowDevice
	// HighWater is the PM used fraction above which new data spills to
	// the slow tier and TierPass starts demoting (default 0.90).
	HighWater float64
	// LowWater is the PM used fraction a demotion pass drives down to
	// (default 0.80).
	LowWater float64
	// PromoteMin is the extent heat at which TierPass migrates a slow
	// extent back to PM (default 2).
	PromoteMin int64
}

// tierState is the mounted form of TierOptions.
type tierState struct {
	dev        *tier.SlowDevice
	base       int64 // first slow block (global block space)
	blocks     int64
	baseByte   int64
	pool       *tier.Pool
	highWater  float64
	lowWater   float64
	promoteMin int64
}

// initTier wires a slow tier into the FS (Mkfs and Mount share it).
func (fs *FS) initTier(opts *TierOptions) error {
	if opts == nil || opts.Slow == nil {
		return nil
	}
	base := (fs.g.totalBlocks + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	blocks := opts.Slow.Size() / BlockSize
	if blocks <= 0 {
		return fmt.Errorf("winefs: slow tier too small (%d bytes)", opts.Slow.Size())
	}
	// Extent records hold block numbers as uint32.
	if base+blocks > 1<<32 {
		return fmt.Errorf("winefs: slow tier too large (blocks %d..%d exceed 32-bit extent records)", base, base+blocks)
	}
	t := &tierState{
		dev:        opts.Slow,
		base:       base,
		blocks:     blocks,
		baseByte:   base * BlockSize,
		pool:       tier.NewPool(base, blocks),
		promoteMin: opts.PromoteMin,
	}
	t.setWaterMarks(opts.HighWater, opts.LowWater)
	if t.promoteMin <= 0 {
		t.promoteMin = 2
	}
	fs.tier = t
	return nil
}

// SetTierWaterMarks adjusts the spill/demotion thresholds of a live
// tiered mount (no-op when untiered). Callers serialise with their own
// TierPass invocations — the marks steer the next pass and the next
// allocation, they are not a synchronisation point.
func (fs *FS) SetTierWaterMarks(high, low float64) {
	if t := fs.tier; t != nil {
		t.setWaterMarks(high, low)
	}
}

// setWaterMarks installs the marks; out-of-range values fall back to the
// defaults (0.90, and 0.10 below the high mark).
func (t *tierState) setWaterMarks(high, low float64) {
	if high <= 0 || high > 1 {
		high = 0.90
	}
	if low <= 0 || low >= high {
		low = high - 0.10
		if low <= 0 {
			low = high / 2
		}
	}
	t.highWater, t.lowWater = high, low
}

// blkAt returns the physical block backing fileBlk, or -1 when unbacked.
// Caller holds ino.mu.
func blkAt(ino *inode, fileBlk int64) int64 {
	phys, _, ok := ino.findRun(fileBlk)
	if !ok {
		return -1
	}
	return phys
}

// isSlow reports whether a global block number lives on the slow tier.
func (fs *FS) isSlow(blk int64) bool {
	t := fs.tier
	return t != nil && blk >= t.base
}

// --- data-path device routing ----------------------------------------------
//
// Every data access goes through these helpers; metadata paths keep using
// fs.dev directly (metadata is PM-only by construction). An extent never
// straddles the PM/slow boundary — PM extents end at totalBlocks, slow
// extents start at the hugepage-rounded base — so routing by the first
// byte is exact.

func (fs *FS) dataWrite(ctx *sim.Ctx, p []byte, off int64) {
	if t := fs.tier; t != nil && off >= t.baseByte {
		t.dev.Write(ctx, p, off-t.baseByte)
		return
	}
	fs.dev.Write(ctx, p, off)
}

func (fs *FS) dataFlush(ctx *sim.Ctx, off, n int64) {
	if t := fs.tier; t != nil && off >= t.baseByte {
		return // slow-tier writes are durable on completion
	}
	fs.dev.Flush(ctx, off, n)
}

func (fs *FS) dataZero(ctx *sim.Ctx, off, n int64) {
	if t := fs.tier; t != nil && off >= t.baseByte {
		t.dev.Zero(ctx, off-t.baseByte, n)
		return
	}
	fs.dev.Zero(ctx, off, n)
}

// dataReadChecked reads data with media-fault checking on PM. The slow
// tier models no media faults (an SSD's internal ECC re-maps them), so
// slow reads only pay the device cost.
func (fs *FS) dataReadChecked(ctx *sim.Ctx, p []byte, off int64) error {
	if t := fs.tier; t != nil && off >= t.baseByte {
		t.dev.Read(ctx, p, off-t.baseByte)
		return nil
	}
	return fs.dev.ReadChecked(ctx, p, off)
}

// dataCheckRange validates that a byte range decoded from an extent
// record lies inside one of the two tiers.
func (fs *FS) dataCheckRange(off, n int64) error {
	if t := fs.tier; t != nil && off >= t.baseByte {
		if off+n > t.baseByte+t.blocks*BlockSize {
			return fmt.Errorf("winefs: range [%d,+%d) beyond slow tier end %d",
				off, n, t.baseByte+t.blocks*BlockSize)
		}
		return nil
	}
	return fs.dev.CheckRange(off, n)
}

// --- allocation with spill ---------------------------------------------------

// pmUsedBlocks returns (used, total) for the PM data pools.
func (fs *FS) pmUsedBlocks() (used, total int64) {
	free, _ := fs.alloc.stats()
	total = fs.g.poolBlocks * int64(fs.g.cpus)
	return total - free, total
}

// pmAboveHighWater reports whether PM occupancy (plus a pending
// allocation of `extra` blocks) exceeds the spill threshold.
func (fs *FS) pmAboveHighWater(extra int64) bool {
	t := fs.tier
	if t == nil {
		return false
	}
	used, total := fs.pmUsedBlocks()
	return float64(used+extra) > t.highWater*float64(total)
}

// allocSpill is the tier placement policy, written once: PM first (pm is
// how the caller asks PM), spilling to the slow tier when PM is past the
// high-water mark or genuinely out of space. It fails only when BOTH tiers
// are exhausted — PM-full with slow headroom is a spill, never an ENOSPC
// (the alloc_spill_* counters make the fallback visible in /metrics). The
// extents are appended to out, which comes back unchanged on failure.
func (fs *FS) allocSpill(ctx *sim.Ctx, blocks int64, out []alloc.Extent, pm func(out []alloc.Extent) ([]alloc.Extent, bool)) ([]alloc.Extent, bool) {
	if fs.tier == nil {
		return pm(out)
	}
	if !fs.pmAboveHighWater(blocks) {
		if out, ok := pm(out); ok {
			return out, true
		}
	}
	if exts := fs.allocSlow(ctx, blocks); exts != nil {
		ctx.Counters.AllocSpillExtents += int64(len(exts))
		ctx.Counters.AllocSpillBlocks += blocks
		return append(out, exts...), true
	}
	// Slow tier full: PM may still have room (we skipped it above the
	// high-water mark — better some PM pressure than a spurious ENOSPC).
	return pm(out)
}

// allocSlow carves n blocks from the slow pool (nil when it cannot cover
// them), charging the allocator invocation when it does.
func (fs *FS) allocSlow(ctx *sim.Ctx, n int64) []alloc.Extent {
	exts := fs.tier.pool.Alloc(n)
	if exts != nil {
		ctx.Advance(allocCost)
	}
	return exts
}

// allocData serves a file-data allocation (the extent path) with tier
// placement, appending to out; allocator.allocTo fails with ErrNoSpace and
// nothing else.
func (fs *FS) allocData(ctx *sim.Ctx, cpu int, blocks int64, wantAligned bool, out []alloc.Extent) ([]alloc.Extent, error) {
	out, ok := fs.allocSpill(ctx, blocks, out, func(out []alloc.Extent) ([]alloc.Extent, bool) {
		out, err := fs.alloc.allocTo(ctx, cpu, blocks, wantAligned, out)
		return out, err == nil
	})
	if !ok {
		return out, vfs.ErrNoSpace
	}
	return out, nil
}

// allocDataSmall is allocData for the copy-on-write path (hole-sized
// pieces, bool result like allocSmallTo).
func (fs *FS) allocDataSmall(ctx *sim.Ctx, cpu int, need int64, out []alloc.Extent) ([]alloc.Extent, bool) {
	return fs.allocSpill(ctx, need, out, func(out []alloc.Extent) ([]alloc.Extent, bool) {
		return fs.alloc.allocSmallTo(ctx, cpu, need, out)
	})
}

// --- heat tracking -----------------------------------------------------------

// touchExtent bumps the heat of the extent covering fileBlk. Caller holds
// ino.mu at least shared: the extent slice cannot be reshaped underneath,
// but concurrent readers race on the counter — hence the atomic. No-op on
// untiered mounts.
func (fs *FS) touchExtent(ino *inode, fileBlk int64) {
	if fs.tier == nil {
		return
	}
	if i := ino.extentAt(fileBlk); i >= 0 {
		atomic.AddInt64(&ino.extents[i].heat, 1)
	}
}

// --- migration ---------------------------------------------------------------

// TierPassOptions tunes one migration pass.
type TierPassOptions struct {
	// Pacer throttles migration copies to a duty-cycle budget (nil =
	// unthrottled).
	Pacer *sim.Pacer
	// MaxMigrateBlocks caps blocks moved per pass (0 = 16384).
	MaxMigrateBlocks int64
}

// TierPassStats summarises one migration pass.
type TierPassStats struct {
	Promotions     int64 // extent migrations slow -> PM
	PromotedBlocks int64
	Demotions      int64 // extent migrations PM -> slow
	DemotedBlocks  int64
	PinnedBlocks   int64 // PM blocks of mapped files, left out of the victim scan
	PMFree         int64 // PM free blocks after the pass
	SlowFree       int64 // slow free blocks after the pass
}

// tierCand is one migration candidate extent, snapshotted outside locks.
type tierCand struct {
	ino     *inode
	fileBlk int64
	length  int64
	heat    int64
}

// TierPass runs one bounded migration pass: hot slow extents (heat >=
// PromoteMin) move up while PM has headroom; if PM is above the
// high-water mark, the coldest PM extents move down until occupancy
// reaches the low-water mark. What is mapped is not a demotion victim: the
// PM extents of a file with a live mapping are pinned (PinnedBlocks) until
// the last mapping closes — a DAX mapping can only point at PM, loads and
// stores through it never reach the heat counters, so the file always
// looks coldest, and its next access would fault the data straight back
// up at the foreground's expense. The policy stops choosing such files;
// the mechanism (migrateRun under a live mapping, invalidate before free)
// is unchanged. Extent heat is halved afterwards so the policy tracks the
// current working set rather than all of history. Passes serialise on
// fs.maintMu; each migration is individually journaled, so a crash
// mid-pass loses no data.
func (fs *FS) TierPass(ctx *sim.Ctx, opt TierPassOptions) (TierPassStats, error) {
	var st TierPassStats
	t := fs.tier
	if t == nil {
		return st, nil
	}
	if err := fs.writable(); err != nil {
		return st, err
	}
	fs.maintMu.Lock()
	defer fs.maintMu.Unlock()
	if fs.unmounted.Load() {
		return st, nil
	}
	sp := ctx.StartSpan("tier.pass")
	defer ctx.EndSpan(sp)

	budget := opt.MaxMigrateBlocks
	if budget <= 0 {
		budget = 16384
	}

	// Candidate snapshot: every data extent of every regular file, split
	// by tier; the PM extents of a mapped file are pinned, not candidates.
	// Heat reads are atomic (concurrent readers bump them).
	var pmCands, slowCands []tierCand
	for _, ino := range fs.snapshotInodes() {
		ino.mu.RLock()
		if ino.typ == typeFile {
			pinned := len(ino.mappings) > 0
			for i := range ino.extents {
				e := &ino.extents[i]
				c := tierCand{ino: ino, fileBlk: e.fileBlk, length: e.length, heat: atomic.LoadInt64(&e.heat)}
				switch {
				case fs.isSlow(e.blk):
					slowCands = append(slowCands, c)
				case pinned:
					st.PinnedBlocks += e.length
				default:
					pmCands = append(pmCands, c)
				}
			}
		}
		ino.mu.RUnlock()
	}

	// Sort both candidate lists once: promotion candidates hottest-first,
	// demotion victims coldest-first (ino/offset tiebreaks keep passes
	// deterministic for a given heat snapshot).
	tiebreak := func(a, b tierCand) bool {
		if a.ino.ino != b.ino.ino {
			return a.ino.ino < b.ino.ino
		}
		return a.fileBlk < b.fileBlk
	}
	sort.Slice(slowCands, func(i, j int) bool {
		a, b := slowCands[i], slowCands[j]
		return a.heat > b.heat || a.heat == b.heat && tiebreak(a, b)
	})
	sort.Slice(pmCands, func(i, j int) bool {
		a, b := pmCands[i], pmCands[j]
		return a.heat < b.heat || a.heat == b.heat && tiebreak(a, b)
	})

	used, total := fs.pmUsedBlocks()
	hwBlocks := int64(t.highWater * float64(total))
	lowBlocks := int64(t.lowWater * float64(total))

	// hotWant is how much slow-tier data has earned promotion this pass,
	// decided by pairing each candidate against the PM victims it would
	// displace: the candidate must be at least tierSwapFactor times hotter
	// than every one of them. An absolute threshold cannot work here —
	// with a uniform trickle over the whole data set every extent on both
	// tiers carries a little heat, and any fixed bar either vetoes real
	// promotions or green-lights noise-driven swaps forever (each one a
	// 2MiB copy under the inode lock, paid by whoever is touching the
	// file). The pairwise test is self-tuning: it scales with the access
	// rate and terminates in noise, because similar heats never justify a
	// swap. Existing headroom below the low mark counts as free victims.
	//
	// hotWant drives the swap mode below: a PM tier parked at the
	// high-water mark (the steady state after allocation spill) would
	// otherwise never demote — not above the mark — and never promote —
	// no headroom — leaving hot data stuck on the slow tier forever.
	promo := slowCands[:0:0]
	for _, c := range slowCands {
		if c.heat >= t.promoteMin && c.heat >= c.length>>tierPromoteDensityShift {
			promo = append(promo, c)
		}
	}
	var hotWant int64
	victimHeatCap := int64(-1) // hottest PM extent a swap may displace
	{
		pj := 0
		var avail int64
		if used < lowBlocks {
			avail = lowBlocks - used
		}
		for _, c := range promo {
			if hotWant >= budget {
				break
			}
			justified := true
			for avail < c.length && pj < len(pmCands) {
				v := pmCands[pj]
				if v.heat*tierSwapFactor > c.heat {
					justified = false
					break
				}
				avail += v.length
				victimHeatCap = v.heat
				pj++
			}
			if !justified || avail < c.length {
				break
			}
			avail -= c.length
			hotWant += c.length
		}
	}
	hotWant = min64(hotWant, budget)

	// Demotions first: above the high-water mark, shed the coldest
	// extents until occupancy reaches the low-water mark. Below it, if
	// justified promotions would not fit, open exactly enough room for
	// them (swap mode) — demoting only victims the pairing above already
	// judged clearly colder than what replaces them.
	var target int64
	if used > hwBlocks {
		target = used - lowBlocks
	}
	if hotWant > 0 {
		// Open room BELOW the low mark for the queued promotions: they
		// refill exactly to it. Draining only to the mark itself would
		// leave them no room at all.
		if swapTarget := used + hotWant - lowBlocks; swapTarget > target {
			target = swapTarget
		}
	}
	swapOnly := used <= hwBlocks
	for _, c := range pmCands {
		if target <= 0 || budget <= 0 {
			break
		}
		if swapOnly && c.heat > victimHeatCap {
			break
		}
		moved := fs.migrateExtent(ctx, c, true, opt.Pacer, func(moved int64) int64 {
			if fs.unmounted.Load() || fs.writable() != nil {
				return 0
			}
			return min64(target, budget) - moved
		})
		if moved > 0 {
			st.Demotions++
			ctx.Counters.TierDemotions++
			st.DemotedBlocks += moved
			ctx.Counters.TierDemotedBlocks += moved
			target -= moved
			budget -= moved
		}
	}

	// Promotions: refaulted/re-read data earns its way back to PM while
	// there is headroom below the high-water mark (including the room the
	// swap demotions just opened).
	for _, c := range promo {
		if budget <= 0 {
			break
		}
		// Promote only what fits below the LOW water mark right now — not
		// the high one. Filling to the high mark would leave the very next
		// organic allocation to tip occupancy over it, and the following
		// pass would demote the whole high-low band right back: a
		// 10%-of-PM oscillation on every pass. Promoted data stops at the
		// low mark and the band stays a dead zone that organic growth
		// fills gradually. A partially promoted extent is still a win (the
		// hot pages move, the cold tail follows on a later pass).
		moved := fs.migrateExtent(ctx, c, false, opt.Pacer, func(moved int64) int64 {
			usedNow, totalNow := fs.pmUsedBlocks()
			return min64(budget-moved, int64(t.lowWater*float64(totalNow))-usedNow)
		})
		if moved > 0 {
			st.Promotions++
			ctx.Counters.TierPromotions++
			st.PromotedBlocks += moved
			ctx.Counters.TierPromotedBlocks += moved
			budget -= moved
		}
	}

	// Age heat so the policy forgets last epoch's working set.
	for _, ino := range fs.snapshotInodes() {
		ino.mu.Lock()
		for i := range ino.extents {
			ino.extents[i].heat /= 2
		}
		ino.mu.Unlock()
	}

	free, _ := fs.alloc.stats()
	st.PMFree = free
	st.SlowFree = t.pool.FreeBlocks()
	ctx.Counters.TierPasses++
	return st, nil
}

// migrateExtent walks one candidate extent toward the other tier, one
// migrateRun step at a time, for as long as limit — given the blocks
// moved so far — still allows some. Returns the blocks moved.
func (fs *FS) migrateExtent(ctx *sim.Ctx, c tierCand, toSlow bool, pacer *sim.Pacer, limit func(moved int64) int64) int64 {
	var moved int64
	for moved < c.length {
		want := min64(c.length-moved, limit(moved))
		if want <= 0 {
			break
		}
		n := fs.migrateRun(ctx, c.ino, c.fileBlk+moved, want, toSlow, pacer)
		if n == 0 {
			break
		}
		moved += n
	}
	return moved
}

// migrateRun migrates up to `want` blocks of the run starting at fileLo to
// the other tier under one moverHold. Returns blocks moved (0 when the
// layout changed underneath, the run is already on the target tier, or
// destination space ran out).
func (fs *FS) migrateRun(ctx *sim.Ctx, ino *inode, fileLo, want int64, toSlow bool, pacer *sim.Pacer) (moved int64) {
	if fs.getInode(ino.ino) != ino { // unlinked and number reused
		return 0
	}
	fs.moverHold(ctx, ino, pacer, func() {
		if ino.typ == typeFile {
			moved = fs.migrateRunLocked(ctx, ino, fileLo, want, toSlow)
		}
	})
	return moved
}

// migrateRunLocked is the tier policy over relocate: pick the run's
// destination on the other tier (the slow pool, or any PM space) and cap
// the move at relocateChunkBlocks — larger runs migrate over several calls,
// and a paced caller drops the lock and sleeps between them (migrateRun).
// Caller holds the inode lock and ino.mu exclusively. Returns the blocks
// moved.
func (fs *FS) migrateRunLocked(ctx *sim.Ctx, ino *inode, fileLo, want int64, toSlow bool) int64 {
	phys, run, found := ino.findRun(fileLo)
	if !found || fs.isSlow(phys) == toSlow {
		return 0
	}
	n := min64(min64(want, run), relocateChunkBlocks)
	if n <= 0 {
		return 0
	}
	var dst []alloc.Extent
	if toSlow {
		if dst = fs.allocSlow(ctx, n); dst == nil {
			return 0
		}
	} else {
		var err error
		if dst, err = fs.alloc.alloc(ctx, fs.txCPU(ctx), n, false); err != nil {
			return 0
		}
	}
	if fs.relocate(ctx, ino, fileLo, n, dst, "tier-migrate") != nil {
		return 0
	}
	return n
}

// promoteRunLocked pulls the slow run covering fileBlk up to PM — the
// mmap fault path (DAX mappings can only point at PM). Caller holds the
// inode lock and ino.mu exclusively. Returns whether the block is now
// PM-backed.
func (fs *FS) promoteRunLocked(ctx *sim.Ctx, ino *inode, fileBlk int64) bool {
	phys, _, found := ino.findRun(fileBlk)
	if !found || !fs.isSlow(phys) {
		return found
	}
	// Walk back to the start of the slow extent so the whole extent (up
	// to one hugepage) promotes at once; faulting page by page would
	// shred it.
	e := ino.extents[ino.extentAt(fileBlk)]
	lo := e.fileBlk
	if fileBlk-lo >= BlocksPerHuge {
		// Huge extent: promote the hugepage-sized piece containing fileBlk.
		lo = e.fileBlk + (fileBlk-e.fileBlk)/BlocksPerHuge*BlocksPerHuge
	}
	end := e.fileBlk + e.length
	if end > lo+BlocksPerHuge {
		end = lo + BlocksPerHuge
	}
	// migrateRunLocked moves at most relocateChunkBlocks per call; walk the
	// piece so the faulting block is covered whatever its offset.
	for cur := lo; cur < end; {
		moved := fs.migrateRunLocked(ctx, ino, cur, end-cur, false)
		if moved == 0 {
			return false
		}
		cur += moved
	}
	ctx.Counters.TierFaultPromotions++
	phys, _, found = ino.findRun(fileBlk)
	return found && !fs.isSlow(phys)
}

// TierStats reports the two tiers' occupancy; ok is false on untiered
// mounts.
type TierStats struct {
	PMTotalBlocks   int64
	PMFreeBlocks    int64
	SlowTotalBlocks int64
	SlowFreeBlocks  int64
}

// TierStats returns current tier occupancy.
func (fs *FS) TierStats() (TierStats, bool) {
	t := fs.tier
	if t == nil {
		return TierStats{}, false
	}
	used, total := fs.pmUsedBlocks()
	return TierStats{
		PMTotalBlocks:   total,
		PMFreeBlocks:    total - used,
		SlowTotalBlocks: t.blocks,
		SlowFreeBlocks:  t.pool.FreeBlocks(),
	}, true
}

// Tiered reports whether a slow tier is attached.
func (fs *FS) Tiered() bool { return fs.tier != nil }

// SlowDevice exposes the slow tier device (benchmark cost gates).
func (fs *FS) SlowDevice() *tier.SlowDevice {
	if fs.tier == nil {
		return nil
	}
	return fs.tier.dev
}
