package winefs

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/sim"
)

// Audit is the runtime invariant auditor: it cross-checks the allocator's
// cached per-group accounting against the ground truth recomputed from its
// trees, verifies the hole-pool promotion invariant ("no hole ever fully
// contains an aligned hugepage chunk", §3.6), checks every free extent for
// bounds and overlap, and reconciles the totals against both StatFS and the
// sum of every inode's extents — so a leak or double-free anywhere in the
// FS shows up as a named violation instead of silent drift. Last, it reads
// every live inode's header and extent records back from the media and
// compares them with the DRAM image the file system is running on
// (auditMedia): the two are written by different code on every operation,
// and an error path that rolls back one and not the other is otherwise
// invisible until the next mount.
//
// Audit assumes a quiescent file system (no in-flight operations); the
// soak test and the fault campaign call it between phases. It returns nil
// when every invariant holds, or an error listing every violation found.
func (fs *FS) Audit(ctx *sim.Ctx) error {
	var violations []string
	addf := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	// Phase 1: per-group internal consistency. All group locks are held
	// simultaneously (index order; group locks are never nested elsewhere)
	// so phases 2-4 check one coherent instant — with one group at a time,
	// blocks mid-flight between groups would read as overlaps or leaks.
	type freeExt struct {
		start, length int64
		aligned       bool
		held          bool // parked in a defrag hold, not allocatable
		cpu           int
	}
	var free []freeExt
	var freeBlocks, alignedExtents, heldBlocks int64
	for _, g := range fs.alloc.groups {
		g.mu.Lock()
	}
	for _, g := range fs.alloc.groups {
		poolStart, poolEnd := fs.g.poolRange(g.cpu)

		// The hole index checks itself (both trees and its count agree);
		// the group's published count must agree with it in turn.
		if err := g.holes.Check(); err != nil {
			addf("group %d: hole pool: %v", g.cpu, err)
		}
		if pub, n := g.holeBlocks.Load(), g.holes.FreeBlocks(); pub != n {
			addf("group %d: published holeBlocks=%d but the pool holds %d", g.cpu, pub, n)
		}
		for _, h := range g.holes.Extents() {
			start, length := h.Start, h.Len
			if start < poolStart || start+length > poolEnd {
				addf("group %d: hole [%d,+%d) outside pool [%d,%d)", g.cpu, start, length, poolStart, poolEnd)
			}
			if !g.noPromote {
				// Promotion invariant: the first aligned chunk boundary at or
				// after start must not fit a whole hugepage inside the hole.
				first := (start + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
				if first+BlocksPerHuge <= start+length {
					addf("group %d: hole [%d,+%d) fully contains aligned chunk %d (promotion invariant)",
						g.cpu, start, length, first)
				}
			}
			free = append(free, freeExt{start, length, false, false, g.cpu})
		}

		seen := make(map[int64]bool, len(g.aligned))
		for _, b := range g.aligned {
			if b%BlocksPerHuge != 0 {
				addf("group %d: aligned extent %d not hugepage-aligned", g.cpu, b)
			}
			if b < poolStart || b+BlocksPerHuge > poolEnd {
				addf("group %d: aligned extent %d outside pool [%d,%d)", g.cpu, b, poolStart, poolEnd)
			}
			if seen[b] {
				addf("group %d: aligned extent %d listed twice", g.cpu, b)
			}
			seen[b] = true
			free = append(free, freeExt{b, BlocksPerHuge, true, false, g.cpu})
		}
		freeBlocks += g.freeBlocks()
		alignedExtents += int64(len(g.aligned))

		// Defrag hold (§3.5): a chunk under online reclamation parks its
		// free sub-ranges in holdParts. They must lie inside the held
		// chunk and — checked globally in phase 2 — stay disjoint from
		// both pools; they still count as free space in the tiling.
		if g.holdBase < 0 && len(g.holdParts) > 0 {
			addf("group %d: %d hold parts but no chunk held", g.cpu, len(g.holdParts))
		}
		if g.holdBase >= 0 {
			if g.holdBase%BlocksPerHuge != 0 {
				addf("group %d: held chunk base %d not hugepage-aligned", g.cpu, g.holdBase)
			}
			for _, p := range g.holdParts {
				if p.Start < g.holdBase || p.End() > g.holdBase+BlocksPerHuge {
					addf("group %d: hold part [%d,+%d) outside held chunk %d",
						g.cpu, p.Start, p.Len, g.holdBase)
				}
				free = append(free, freeExt{p.Start, p.Len, false, true, g.cpu})
				heldBlocks += p.Len
			}
		}
	}
	for i := len(fs.alloc.groups) - 1; i >= 0; i-- {
		fs.alloc.groups[i].mu.Unlock()
	}

	// Phase 2: global free-space disjointness. Every free extent — aligned
	// or hole, any group — must occupy its own blocks.
	sort.Slice(free, func(i, j int) bool { return free[i].start < free[j].start })
	for i := 1; i < len(free); i++ {
		prev, cur := free[i-1], free[i]
		if prev.start+prev.length <= cur.start {
			continue
		}
		switch {
		case prev.held || cur.held:
			// §3.5: a chunk under defrag reclamation is invisible to the
			// allocator — its held ranges re-entering a pool would let
			// foreground allocation re-fragment the chunk mid-migration.
			addf("defrag hold violation: held range overlaps free pool (group %d [%d,+%d) vs group %d [%d,+%d))",
				prev.cpu, prev.start, prev.length, cur.cpu, cur.start, cur.length)
		case prev.aligned != cur.aligned:
			// §3.6 promotion invariant, named: the same blocks sit in the
			// aligned FIFO and the unaligned hole pool simultaneously.
			addf("promotion invariant violation: blocks in both aligned and unaligned pools (group %d [%d,+%d) vs group %d [%d,+%d))",
				prev.cpu, prev.start, prev.length, cur.cpu, cur.start, cur.length)
		default:
			addf("free extents overlap: group %d [%d,+%d) and group %d [%d,+%d)",
				prev.cpu, prev.start, prev.length, cur.cpu, cur.start, cur.length)
		}
	}

	// Phase 3: totals vs StatFS (the public accounting) and FreeExtents.
	st := fs.StatFS(ctx)
	if st.FreeBlocks != freeBlocks {
		addf("StatFS.FreeBlocks=%d but groups sum to %d", st.FreeBlocks, freeBlocks)
	}
	if st.FreeAligned2M != alignedExtents {
		addf("StatFS.FreeAligned2M=%d but groups sum to %d", st.FreeAligned2M, alignedExtents)
	}
	var merged int64
	for _, e := range fs.alloc.freeExtents() {
		merged += e.Len
	}
	if merged != freeBlocks {
		addf("FreeExtents() covers %d blocks but groups sum to %d", merged, freeBlocks)
	}

	// Phase 4: full tiling. Every pool block is either free or referenced by
	// exactly one inode (file/dir extents plus indirect metadata blocks), so
	// free + used must equal the pool size; a mismatch is a leak (lost
	// blocks) or a double-accounting (negative leak). On tiered mounts the
	// used sum splits by tier: PM extents tile the PM pools, slow extents
	// tile the slow region against the tier pool.
	var used, usedSlow int64
	var slowUsed []alloc.Extent
	for _, ino := range fs.snapshotInodes() {
		ino.mu.RLock()
		fs.auditMedia(ino, addf) // phase 6, under the same hold
		for _, e := range ino.extents {
			if fs.isSlow(e.blk) {
				usedSlow += e.length
				slowUsed = append(slowUsed, alloc.Extent{Start: e.blk, Len: e.length})
			} else {
				used += e.length
			}
		}
		used += int64(len(ino.indirect)) // indirect blocks are PM-only
		ino.mu.RUnlock()
	}
	total := fs.g.poolBlocks * int64(fs.g.cpus)
	if freeBlocks+heldBlocks+used != total {
		addf("tiling: free=%d + held=%d + used=%d = %d, want %d (leak of %d blocks)",
			freeBlocks, heldBlocks, used, freeBlocks+heldBlocks+used, total,
			total-freeBlocks-heldBlocks-used)
	}

	// Phase 5 (tiered mounts): slow-region tiling and disjointness. Used
	// slow extents must be pairwise disjoint, inside the region, and tile
	// it exactly against the tier pool's free list.
	if t := fs.tier; t != nil {
		if err := t.pool.Check(); err != nil {
			addf("slow pool: %v", err)
		}
		slowFree := t.pool.FreeBlocks()
		if slowFree+usedSlow != t.blocks {
			addf("slow tiling: free=%d + used=%d = %d, want %d (leak of %d blocks)",
				slowFree, usedSlow, slowFree+usedSlow, t.blocks, t.blocks-slowFree-usedSlow)
		}
		for _, e := range t.pool.FreeExtents() {
			if e.Start < t.base || e.End() > t.base+t.blocks {
				addf("slow free extent [%d,+%d) outside region [%d,%d)", e.Start, e.Len, t.base, t.base+t.blocks)
			}
			slowUsed = append(slowUsed, e) // free joins used for the overlap scan
		}
		sort.Slice(slowUsed, func(i, j int) bool { return slowUsed[i].Start < slowUsed[j].Start })
		for i := 1; i < len(slowUsed); i++ {
			if slowUsed[i-1].End() > slowUsed[i].Start {
				addf("slow extents overlap: [%d,+%d) and [%d,+%d)",
					slowUsed[i-1].Start, slowUsed[i-1].Len, slowUsed[i].Start, slowUsed[i].Len)
			}
		}
		for _, e := range slowUsed {
			if e.Start < t.base || e.End() > t.base+t.blocks {
				addf("slow used extent [%d,+%d) outside region [%d,%d)", e.Start, e.Len, t.base, t.base+t.blocks)
			}
		}
	}

	if len(violations) == 0 {
		return nil
	}
	return &AuditError{Violations: violations}
}

// auditMedia is Audit's phase 6, DRAM against media, for one inode: its
// whole header — type, flags, size, link count, record count, first
// indirect block: what mount will trust — and for every extent in the DRAM
// list the PM record its slot names, decoded afresh, must say what DRAM
// says; the slots must be a permutation of the record indexes. What the media cannot return —
// a poisoned line; on a degraded mount, the part of a chain that never
// loaded — is skipped, not reported: the checked reads already turn those
// into EIO and a read-only mount, and a fault campaign's verdict must not
// depend on whether Audit happened to look. For the same reason the reads
// are not checked loads: a scripted fault rule counts those, and may fire
// on one. Caller holds ino.mu.
func (fs *FS) auditMedia(ino *inode, addf func(format string, args ...interface{})) {
	// peek fills buf from the media unless a line of it is poisoned, without
	// issuing a load the fault plan can see.
	peek := func(buf []byte, addr int64) bool {
		n := int64(len(buf))
		if fs.dev.CheckRange(addr, n) != nil || len(fs.dev.PoisonedLines(addr, n)) > 0 {
			return false
		}
		fs.dev.ReadAt(buf, addr)
		return true
	}
	var hdr [inoOffExtents]byte
	if peek(hdr[:], fs.g.inodeAddr(ino.ino)) {
		if di := decodeInodeHeader(hdr[:]); di != ino.header() {
			addf("DRAM/media skew: ino %d has header %+v in DRAM, %+v on media", ino.ino, ino.header(), di)
		}
	}
	seen := make([]bool, len(ino.extents))
	var rec [extentSize]byte
	for i, e := range ino.extents {
		slot := e.slot
		if slot < 0 || slot >= len(seen) || seen[slot] {
			addf("DRAM/media skew: ino %d extent %d holds record slot %d: the slots are not a permutation of 0..%d",
				ino.ino, i, slot, len(seen)-1)
			continue
		}
		seen[slot] = true
		addr, err := fs.extSlotAddr(nil, nil, ino, slot)
		if err != nil || !peek(rec[:], addr) {
			continue
		}
		if m := decodeExtent(rec[:]); m.fileBlk != e.fileBlk || m.blk != e.blk || m.length != e.length {
			addf("DRAM/media skew: ino %d extent %d is (file %d, blk %d, +%d) in DRAM but record %d on media says (file %d, blk %d, +%d)",
				ino.ino, i, e.fileBlk, e.blk, e.length, slot, m.fileBlk, m.blk, m.length)
		}
	}
}

// AuditError reports every invariant violation an Audit pass found.
type AuditError struct {
	Violations []string
}

func (e *AuditError) Error() string {
	if len(e.Violations) == 1 {
		return "winefs audit: " + e.Violations[0]
	}
	return fmt.Sprintf("winefs audit: %d violations, first: %s", len(e.Violations), e.Violations[0])
}
