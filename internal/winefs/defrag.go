package winefs

import (
	"cmp"
	"slices"

	"repro/internal/alloc"
	"repro/internal/sim"
)

// Online background defragmentation (§3.5): unlike reactive rewriting —
// which fixes one fragmented file because somebody mmapped it — the
// defragmenter works from the allocator's point of view. It scans the
// per-CPU hole pools for hugepage chunks that are only partially free,
// migrates the remaining live blocks elsewhere (through relocate, exactly
// like a rewrite), and lets the hole-merge path promote the emptied
// chunk back into the aligned FIFO. A held chunk is
// invisible to foreground allocation for the duration, so the re-formed
// extent cannot be re-fragmented under the defragmenter's feet.
//
// The pass then drains the reactive-rewrite queue — the re-formed
// aligned extents are exactly what those rewrites were waiting for —
// and notifies live mappings so they re-promote to hugepages without
// waiting for a refault.
//
// All device work is charged to the caller's thread context; a Pacer
// bounds the duty cycle so the background thread steals a configurable
// fraction of device bandwidth instead of the 25-40% an unthrottled
// defragmenter takes from foreground mmap traffic (§4).

// DefragStats summarises one defragmentation pass.
type DefragStats struct {
	ChunksScanned  int64 // candidate chunks examined
	MigratedBlocks int64 // live blocks copied out of fragmented chunks
	MigratedBytes  int64 // same, in bytes
	Recovered2M    int64 // hugepage extents re-formed
	Rewrites       int   // queued reactive rewrites drained by this pass
	SkippedBusy    int64 // candidates abandoned (layout changed / migration failed)
	SkippedMeta    int64 // candidates pinned by metadata blocks
}

// Clean reports whether the pass made no progress — nothing migrated,
// nothing recovered, nothing rewritten. (Chunks may still have been
// scanned: meta-pinned candidates are rescanned forever and do not
// count as work.)
func (s DefragStats) Clean() bool {
	return s.MigratedBlocks == 0 && s.Recovered2M == 0 && s.Rewrites == 0
}

// DefragOptions tunes one pass.
type DefragOptions struct {
	// Pacer throttles the migration copies to a duty-cycle budget.
	// nil runs unthrottled.
	Pacer *sim.Pacer
	// MaxChunks caps candidate chunks per pass (0 = 32).
	MaxChunks int
}

// defragMaxMigrateBlocks caps the live blocks one DefragPass moves: one
// aligned pool's worth of copying.
const defragMaxMigrateBlocks = 8192

type defragCand struct {
	base int64 // chunk base block
	free int64 // free blocks currently inside the chunk
}

// DefragPass runs one bounded pass of the online defragmenter. Passes
// serialise on fs.maintMu; foreground operations interleave freely —
// each migration takes the same per-inode locks a writer would. The
// per-group cursor checkpoints scan progress in DRAM; a crash mid-pass
// loses only the cursor (each migration is individually journaled), and
// the next mount simply rescans.
func (fs *FS) DefragPass(ctx *sim.Ctx, opt DefragOptions) (DefragStats, error) {
	var st DefragStats
	if err := fs.writable(); err != nil {
		return st, err
	}
	fs.maintMu.Lock()
	defer fs.maintMu.Unlock()
	if fs.unmounted.Load() {
		return st, nil
	}
	sp := ctx.StartSpan("defrag.pass")
	defer ctx.EndSpan(sp)

	maxChunks := opt.MaxChunks
	if maxChunks <= 0 {
		maxChunks = 32
	}
	if len(fs.defragCursor) != len(fs.alloc.groups) {
		fs.defragCursor = make([]int64, len(fs.alloc.groups))
	}

	for gi, g := range fs.alloc.groups {
		if g.noPromote {
			continue // alignment ablation: nothing to re-form
		}
		if fs.unmounted.Load() || fs.writable() != nil {
			break
		}
		if st.MigratedBlocks >= defragMaxMigrateBlocks || st.ChunksScanned >= int64(maxChunks) {
			break
		}
		cands, next := g.defragCandidates(fs.defragCursor[gi], maxChunks-int(st.ChunksScanned), fs.maint.chunks)
		fs.defragCursor[gi], fs.maint.chunks = next, cands[:0]
		for _, c := range cands {
			if fs.unmounted.Load() || fs.writable() != nil {
				break
			}
			if st.MigratedBlocks >= defragMaxMigrateBlocks {
				break
			}
			fs.defragChunk(ctx, g, c.base, opt.Pacer, &st)
		}
	}

	// Phase 2: the re-formed aligned extents are what the reactive
	// rewrite queue has been waiting for — drain it on the same budget,
	// re-promoting live mappings as each file lands aligned.
	n := fs.runRewriter(ctx, opt.Pacer)
	st.Rewrites += n
	ctx.Counters.DefragRewrites += int64(n)
	ctx.Counters.DefragPasses++
	return st, nil
}

// defragCandidates collects up to limit partially-free hugepage chunks,
// scanning from the cursor block for fairness across passes, ordered
// cheapest-first (most free blocks = fewest live blocks to migrate).
// Returns the candidates, in buf's storage, and the new cursor.
func (g *group) defragCandidates(cursor int64, limit int, buf []defragCand) ([]defragCand, int64) {
	if limit <= 0 {
		return buf[:0], cursor
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Tally free blocks per chunk, in address order: the holes ascend, so
	// a chunk several holes touch is the last one tallied when the next
	// of them arrives. The hole invariant (no hole fully contains an
	// aligned chunk) means every chunk a hole touches is partially free —
	// exactly the §3.5 targets.
	all := buf[:0]
	g.holes.Ascend(func(h alloc.Extent) {
		for b := h.Start / BlocksPerHuge * BlocksPerHuge; b < h.End(); b += BlocksPerHuge {
			n := min(h.End(), b+BlocksPerHuge) - max(h.Start, b)
			if last := len(all) - 1; last >= 0 && all[last].base == b {
				all[last].free += n
			} else {
				all = append(all, defragCand{base: b, free: n})
			}
		}
	})
	if len(all) == 0 {
		return all, 0
	}
	// Rotate so the scan resumes at the cursor, then take the window.
	start, _ := slices.BinarySearchFunc(all, cursor, func(c defragCand, cursor int64) int { return cmp.Compare(c.base, cursor) })
	slices.Reverse(all[:start%len(all)])
	slices.Reverse(all[start%len(all):])
	slices.Reverse(all)
	window := all[:min(limit, len(all))]
	next := window[len(window)-1].base + BlocksPerHuge
	// Cheapest first: chunks that are mostly free re-form a hugepage
	// extent with the least copying.
	slices.SortFunc(window, func(a, b defragCand) int { return cmp.Compare(b.free, a.free) })
	return window, next
}

// defragChunk reclaims one candidate chunk: hold its free space, migrate
// the live blocks out, release the hold (which promotes the chunk into
// the aligned FIFO if it came back fully free).
func (fs *FS) defragChunk(ctx *sim.Ctx, g *group, base int64, pacer *sim.Pacer, st *DefragStats) {
	st.ChunksScanned++
	ctx.Counters.DefragChunksScanned++
	sp := ctx.StartSpan("defrag.chunk")
	defer ctx.EndSpan(sp)

	release := func() bool {
		g.mu.Lock()
		full := g.releaseHoldLocked()
		g.mu.Unlock()
		return full
	}

	g.mu.Lock()
	held := g.holdChunkLocked(base)
	g.mu.Unlock()
	ctx.Advance(allocCost)
	if held <= 0 || held >= BlocksPerHuge {
		// The layout changed between scan and hold: the chunk is now
		// fully allocated (nothing to recover) or fully free (already
		// promoted). Releasing an empty hold is a no-op either way.
		release()
		st.SkippedBusy++
		ctx.Counters.DefragSkippedBusy++
		return
	}
	end := base + BlocksPerHuge

	// Owner scan — AFTER the hold, so no new allocation can land inside
	// the chunk and the owner set is frozen. Metadata blocks (directory
	// extents, indirect extent blocks) are position-dependent on PM and
	// cannot be relocated: they pin the chunk. The owners are filtered into
	// the front of the snapshot they are read from.
	fs.maint.inodes = fs.snapshotInodesInto(fs.maint.inodes)
	defer func() { fs.maint.inodes = emptied(fs.maint.inodes) }()
	owners := fs.maint.inodes[:0]
	meta := false
	for _, ino := range fs.maint.inodes {
		ino.mu.RLock()
		overlaps := false
		for _, e := range ino.extents {
			if e.blk < end && e.blk+e.length > base {
				overlaps = true
				break
			}
		}
		for _, b := range ino.indirect {
			if b >= base && b < end {
				meta = true
			}
		}
		if overlaps && ino.typ != typeFile {
			meta = true
		}
		ino.mu.RUnlock()
		if overlaps && !meta {
			owners = append(owners, ino)
		}
		if meta {
			break
		}
	}
	if meta {
		release()
		st.SkippedMeta++
		ctx.Counters.DefragSkippedMeta++
		return
	}
	// The shard snapshot iterates a map; fix the migration order so a
	// pass is reproducible for a given image.
	slices.SortFunc(owners, func(a, b *inode) int { return cmp.Compare(a.ino, b.ino) })

	// Feasibility: the chunk's live blocks must fit in hole space OUTSIDE
	// the hold (migration never splits aligned extents — that would just
	// move the fragmentation). Without this check a pass that runs out of
	// hole space mid-chunk copies data, recovers nothing, and consumes
	// the holes a later pass would have needed: perpetual churn instead
	// of convergence. Best-effort under concurrency (foreground
	// allocations can still race the migration), exact when quiescent.
	var avail int64
	for _, og := range fs.alloc.groups {
		avail += og.holeBlocks.Load()
	}
	if avail < BlocksPerHuge-held {
		release()
		st.SkippedBusy++
		ctx.Counters.DefragSkippedBusy++
		return
	}

	ok := true
	for _, ino := range owners {
		if !fs.migrateOut(ctx, ino, base, end, pacer, st) {
			ok = false
			break
		}
	}
	if release() {
		st.Recovered2M++
		ctx.Counters.DefragRecovered2M++
	} else if !ok {
		st.SkippedBusy++
		ctx.Counters.DefragSkippedBusy++
	}
}

// migrateOut is the defragmenter's policy over relocate: every run of
// ino that lives inside [base, end) moves to hole space outside the held
// chunk (the displaced blocks, once freed, are diverted into the hold,
// never back into the pools). Returns false if the chunk could not be
// fully vacated (allocation failure or media fault).
func (fs *FS) migrateOut(ctx *sim.Ctx, ino *inode, base, end int64, pacer *sim.Pacer, st *DefragStats) bool {
	ok := false
	fs.moverHold(ctx, ino, pacer, func() { ok = fs.migrateOutLocked(ctx, ino, base, end, st) })
	// A mapped file the migration just touched may still be fragmented:
	// hand it to the reactive rewriter so phase 2 fixes the whole layout
	// and re-promotes the mapping (must not hold ino.mu here).
	ino.mu.RLock()
	mapped := len(ino.mappings) > 0
	ino.mu.RUnlock()
	if mapped {
		fs.maybeQueueRewrite(ino)
	}
	return ok
}

// migrateOutLocked is migrateOut's locked body: caller holds the inode lock
// and ino.mu exclusively.
func (fs *FS) migrateOutLocked(ctx *sim.Ctx, ino *inode, base, end int64, st *DefragStats) bool {
	if ino.typ != typeFile {
		// Unlinked (or retyped) since the scan: its blocks were
		// freed — and diverted into the hold — already.
		return true
	}
	// Re-verify the overlap under the lock: a concurrent truncate or
	// CoW may have vacated some or all of the chunk on its own.
	type runSpan struct{ fileLo, n int64 }
	var runs []runSpan
	for _, e := range ino.extents {
		lo, hi := max(e.blk, base), min(e.blk+e.length, end)
		if lo < hi {
			runs = append(runs, runSpan{fileLo: e.fileBlk + lo - e.blk, n: hi - lo})
		}
	}
	for _, r := range runs {
		dst, got := fs.alloc.allocHoles(ctx, fs.g.cpuOfBlock(base), r.n)
		if !got {
			return false // no hole space to migrate into
		}
		if fs.relocate(ctx, ino, r.fileLo, r.n, dst, "defrag", &fs.maint.move) != nil {
			return false
		}
		st.MigratedBlocks += r.n
		st.MigratedBytes += r.n * BlockSize
		ctx.Counters.DefragMigratedBlocks += r.n
		ctx.Counters.DefragMigratedBytes += r.n * BlockSize
	}
	return true
}
