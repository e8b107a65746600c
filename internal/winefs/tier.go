package winefs

import (
	"cmp"
	"fmt"
	"slices"
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
// mark or out of space (allocData); per-extent heat and reference counts
// (usage) track re-access, and TierPass migrates cold extents down / hot
// and read-back extents up
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

// The tier policy's marks. tierHighWater is the PM used fraction above
// which new data spills to the slow tier and TierPass starts demoting;
// tierLowWater is the fraction a demotion pass drives down to.
// tierPromoteMin is the extent heat at which TierPass migrates a slow
// extent back to PM in place of PM data at most a quarter as hot (the
// density bar applies too). Below it, a slow extent that has been read
// back since it was written and touched since the last pass comes up only
// in place of dead PM data — never read back, not touched lately
// (usage.dead).
const (
	tierHighWater  = 0.90
	tierLowWater   = 0.80
	tierPromoteMin = 2
)

// TierOptions attaches a slow tier to a Mkfs/Mount.
type TierOptions struct {
	// Slow is the second-tier device. Required.
	Slow *tier.SlowDevice
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
	fs.tier = &tierState{
		dev:        opts.Slow,
		base:       base,
		blocks:     blocks,
		baseByte:   base * BlockSize,
		pool:       tier.NewPool(base, blocks),
		highWater:  tierHighWater,
		lowWater:   tierLowWater,
		promoteMin: tierPromoteMin,
	}
	return nil
}

// SetTierMarks replaces the tier policy's marks on a live tiered mount
// (no-op when untiered): the spill/demotion high water, the low water
// demotion drains to, and the promotion heat bar. Out-of-range values fall
// back to the defaults (0.90; 0.10 below the high mark; 2). Callers
// serialise with their own TierPass invocations — the marks steer the next
// pass and the next allocation, they are not a synchronisation point.
func (fs *FS) SetTierMarks(high, low float64, promoteMin int64) {
	t := fs.tier
	if t == nil {
		return
	}
	if high <= 0 || high > 1 {
		high = tierHighWater
	}
	if low <= 0 || low >= high {
		low = high - 0.10
		if low <= 0 {
			low = high / 2
		}
	}
	if promoteMin <= 0 {
		promoteMin = tierPromoteMin
	}
	t.highWater, t.lowWater, t.promoteMin = high, low, promoteMin
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

// dataWrite stores file data. On PM it is a non-temporal copy (WriteNT):
// durable at the caller's next Fence with no flush of its own, as PMFS's
// memcpy_to_nvmm is. Slow-tier writes are durable on completion.
func (fs *FS) dataWrite(ctx *sim.Ctx, p []byte, off int64) {
	if t := fs.tier; t != nil && off >= t.baseByte {
		t.dev.Write(ctx, p, off-t.baseByte)
		return
	}
	fs.dev.WriteNT(ctx, p, off)
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

// --- usage tracking ----------------------------------------------------------

// tierRefsMax is where usage.refs saturates. The policy reads only
// whether refs is 0; the cap keeps the count small however hot the data
// runs.
const tierRefsMax = 3

// usage is what the tier policy knows of an extent's data, as two signals.
// It belongs to the data, not to the record that describes it: relocate, a
// copy-on-write, a split and a merge all carry it over (join), so no layout
// change makes data look hotter, colder or less used than it is.
type usage struct {
	// heat counts touches, reads and writes alike, and every TierPass
	// halves it: how hot the data is now.
	heat int64
	// refs counts references since the data was written — reads, and
	// writes over it — saturating at tierRefsMax. The write that creates
	// the data is not one, and no pass ages it: 0 means nothing has come
	// back for the data since it was written, however long ago.
	refs int64
}

// dead reports data that nothing has come back for since it was written
// and that nothing touched lately: the first to give up PM.
func (u usage) dead() bool { return u.heat == 0 && u.refs == 0 }

// join is the usage of data that was u's and o's: as hot and as
// referenced as the more so of the two.
func (u usage) join(o usage) usage {
	return usage{heat: max(u.heat, o.heat), refs: max(u.refs, o.refs)}
}

// victimRank orders demotion victims: coldest first, and at heat 0 the
// dead before data that has been read back.
func (u usage) victimRank() int64 {
	if u.dead() {
		return 0
	}
	return 2*u.heat + 1
}

// touchExtent records an access to the extent covering fileBlk: one more
// heat and, when ref — the access reads or overwrites data that was there
// before it — one more reference. Caller holds ino.mu at least shared: the
// extent slice cannot be reshaped underneath, but concurrent readers race
// on the counters — hence the atomics. No-op on untiered mounts.
func (fs *FS) touchExtent(ino *inode, fileBlk int64, ref bool) {
	if fs.tier == nil {
		return
	}
	i := ino.extentAt(fileBlk)
	if i < 0 {
		return
	}
	u := &ino.extents[i].usage
	atomic.AddInt64(&u.heat, 1)
	for r := atomic.LoadInt64(&u.refs); ref && r < tierRefsMax; r = atomic.LoadInt64(&u.refs) {
		if atomic.CompareAndSwapInt64(&u.refs, r, r+1) {
			break
		}
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
	usage
}

// clearsBar reports whether a slow extent is hot enough to earn PM from
// any victim 4x colder: heat at least the promotion bar and at least one
// touch per 16 blocks since the last pass.
func (t *tierState) clearsBar(c tierCand) bool {
	return c.heat >= t.promoteMin && c.heat >= c.length>>tierPromoteDensityShift
}

// TierPass runs one bounded migration pass: hot slow extents (heat at
// least the promotion bar) move up while PM has headroom; if PM is above
// the high-water mark, the coldest PM extents move down until occupancy
// reaches the low-water mark, dead data first (usage.dead). Slow data
// that has been read back, and touched since the last pass, trades places
// with dead PM data without clearing the heat bar. What is mapped is not a
// demotion victim: the
// PM extents of a file with a live mapping are pinned (PinnedBlocks) until
// the last mapping closes — a DAX mapping can only point at PM, loads and
// stores through it never reach the heat counters, so the file always
// looks coldest, and its next access would fault the data straight back
// up at the foreground's expense. The policy stops choosing such files;
// the mechanism (migrateRun under a live mapping, invalidate before free)
// is unchanged. Extent heat is halved afterwards so the policy tracks the
// current working set rather than all of history; references are never
// aged. Passes serialise on
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
	// Heat reads are atomic (concurrent readers bump them). The lists live
	// on fs between passes (maintMu): a pass allocates nothing to decide.
	pmCands, slowCands := fs.maint.pm[:0], fs.maint.slow[:0]
	fs.maint.inodes = fs.snapshotInodesInto(fs.maint.inodes)
	for _, ino := range fs.maint.inodes {
		ino.mu.RLock()
		if ino.typ == typeFile {
			pinned := len(ino.mappings) > 0
			for i := range ino.extents {
				e := &ino.extents[i]
				c := tierCand{ino: ino, fileBlk: e.fileBlk, length: e.length,
					usage: usage{heat: atomic.LoadInt64(&e.heat), refs: atomic.LoadInt64(&e.refs)}}
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
	// demotion victims coldest-first by victimRank (ino/offset tiebreaks
	// keep passes deterministic for a given snapshot).
	tiebreak := func(a, b tierCand) int {
		if c := cmp.Compare(a.ino.ino, b.ino.ino); c != 0 {
			return c
		}
		return cmp.Compare(a.fileBlk, b.fileBlk)
	}
	slices.SortFunc(slowCands, func(a, b tierCand) int {
		if c := cmp.Compare(b.heat, a.heat); c != 0 {
			return c
		}
		return tiebreak(a, b)
	})
	slices.SortFunc(pmCands, func(a, b tierCand) int {
		if c := cmp.Compare(a.victimRank(), b.victimRank()); c != 0 {
			return c
		}
		return tiebreak(a, b)
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
	promo := fs.maint.promo[:0]
	for _, c := range slowCands {
		if t.clearsBar(c) {
			promo = append(promo, c)
		}
	}
	var hotWant int64
	pj, avail := 0, max(lowBlocks-used, 0) // pmCands[:pj] are the victims paired so far
	// pair finds c room among victims of victimRank up to maxRank.
	pair := func(c tierCand, maxRank int64) bool {
		for avail < c.length && pj < len(pmCands) && pmCands[pj].victimRank() <= maxRank {
			avail += pmCands[pj].length
			pj++
		}
		if avail < c.length {
			return false
		}
		avail -= c.length
		hotWant += c.length
		return true
	}
	paired := true
	for _, c := range promo {
		if hotWant >= budget {
			break
		}
		// Victims at least tierSwapFactor times colder: ranked no higher
		// than live data at a quarter of c's heat.
		if paired = pair(c, usage{heat: c.heat / tierSwapFactor, refs: 1}.victimRank()); !paired {
			break
		}
	}

	// Data read once makes room for data read again. Heat cannot tell the
	// data nobody reads from a working set read too thinly to clear the
	// bar — halving takes both to 0 — but references can: once every
	// candidate that clears the bar has its room, and only dead victims
	// made it, a slow extent read back since it was written and touched
	// since the last pass (heat > 0) may displace dead victims too. A live
	// victim never makes room for one, so data read at a trickle on both
	// tiers never trades places; and no pass ages refs, so nothing that has
	// been read back turns dead again — each such swap spends dead PM data
	// for good, and the swaps stop when it is gone (DESIGN §14).
	if paired && (pj == 0 || pmCands[pj-1].dead()) {
		for _, c := range slowCands {
			if hotWant >= budget {
				break
			}
			if c.refs == 0 || c.heat == 0 || t.clearsBar(c) {
				continue
			}
			if !pair(c, 0) { // victimRank 0: the dead
				break
			}
			promo = append(promo, c)
		}
	}
	hotWant = min(hotWant, budget)
	victimCap := int64(-1) // rank of the hottest PM extent a swap may displace
	if pj > 0 {
		victimCap = pmCands[pj-1].victimRank()
	}

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
		if swapOnly && c.victimRank() > victimCap {
			break
		}
		moved := fs.migrateExtent(ctx, c, true, opt.Pacer, func(moved int64) int64 {
			if fs.unmounted.Load() || fs.writable() != nil {
				return 0
			}
			return min(target, budget) - moved
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
			return min(budget-moved, int64(t.lowWater*float64(totalNow))-usedNow)
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
	fs.maint.inodes = fs.snapshotInodesInto(fs.maint.inodes)
	for _, ino := range fs.maint.inodes {
		ino.mu.Lock()
		for i := range ino.extents {
			ino.extents[i].heat /= 2
		}
		ino.mu.Unlock()
	}
	fs.maint.pm, fs.maint.slow, fs.maint.promo = emptied(pmCands), emptied(slowCands), emptied(promo)
	fs.maint.inodes = emptied(fs.maint.inodes)

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
		want := min(c.length-moved, limit(moved))
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
	n := min(min(want, run), relocateChunkBlocks)
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
