package winefs

import (
	"errors"

	"repro/internal/alloc"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Reactive rewriting (§3.6, "Reactively rewriting a file"): when a file is
// memory-mapped and found fragmented — allocated from unaligned holes even
// though it is large enough to use hugepages — it is queued, and a
// background thread later reads it and rewrites it with big (aligned)
// allocations, switching the file's view to the new layout chunk by chunk
// through relocate (relocate.go). The paper notes this is an extremely
// rare path for well-behaved mmap applications.

// fragmentedAt reports whether the full 2MiB chunk at file block lo has
// backing that cannot be hugepage-mapped. A wholly unbacked chunk is not
// fragmented: the fault path backs it with an aligned extent on first
// touch. Caller holds ino.mu.
func (ino *inode) fragmentedAt(lo int64) bool {
	if r, _ := ino.mapAt(lo * BlockSize); r.Huge {
		return false
	}
	_, _, backed := ino.findRun(lo)
	return backed || ino.nextExtentStart(lo, lo+BlocksPerHuge) < lo+BlocksPerHuge
}

// maybeQueueRewrite checks a file's layout at mmap time and queues it for
// rewriting if any full 2MiB chunk of it is fragmented.
func (fs *FS) maybeQueueRewrite(ino *inode) {
	ino.mu.RLock()
	fragmented := false
	for lo := int64(0); (lo+BlocksPerHuge)*BlockSize <= ino.size && !fragmented; lo += BlocksPerHuge {
		fragmented = ino.fragmentedAt(lo)
	}
	ino.mu.RUnlock()
	if !fragmented {
		return
	}
	fs.rewriteMu.Lock()
	if fs.rewriteQueued == nil {
		fs.rewriteQueued = make(map[*inode]bool)
	}
	// rewriteQueued stays set from enqueue until the rewrite completes,
	// so a second mmap while the file is queued — or mid-rewrite — cannot
	// double-enqueue it.
	if !fs.rewriteQueued[ino] {
		fs.rewriteQueued[ino] = true
		fs.rewriteQ = append(fs.rewriteQ, ino)
	}
	fs.rewriteMu.Unlock()
}

// dropRewrite removes a dying inode from the rewrite queue (unlink/rmdir
// while queued). If the inode is mid-rewrite (marked but already popped),
// only the guard is cleared; rewriteChunkLocked re-checks the inode type
// and size under the lock and backs out.
func (fs *FS) dropRewrite(ino *inode) {
	fs.rewriteMu.Lock()
	defer fs.rewriteMu.Unlock()
	if !fs.rewriteQueued[ino] {
		return
	}
	delete(fs.rewriteQueued, ino)
	for i, q := range fs.rewriteQ {
		if q == ino {
			fs.rewriteQ = append(fs.rewriteQ[:i], fs.rewriteQ[i+1:]...)
			break
		}
	}
}

// RewriteQueueLen reports how many files await reactive rewriting.
func (fs *FS) RewriteQueueLen() int {
	fs.rewriteMu.Lock()
	defer fs.rewriteMu.Unlock()
	return len(fs.rewriteQ)
}

// RunRewriter drains the rewrite queue, acting as the paper's background
// thread. The caller provides the thread context the work is charged to
// (experiments run it on a dedicated simulated thread so its bandwidth
// consumption competes with foreground work, §4's defragmentation
// interference discussion). Returns the number of files rewritten.
func (fs *FS) RunRewriter(ctx *sim.Ctx) int {
	return fs.runRewriter(ctx, nil)
}

// runRewriter is RunRewriter with an optional duty-cycle pacer (the
// defragmenter's throttled drain shares this path).
func (fs *FS) runRewriter(ctx *sim.Ctx, pacer *sim.Pacer) int {
	done := 0
	for {
		if fs.unmounted.Load() {
			return done
		}
		fs.rewriteMu.Lock()
		if len(fs.rewriteQ) == 0 {
			fs.rewriteMu.Unlock()
			return done
		}
		ino := fs.rewriteQ[0]
		fs.rewriteQ = fs.rewriteQ[1:]
		fs.rewriteMu.Unlock()
		ok, retry := fs.rewriteFile(ctx, ino, pacer)
		if ok {
			done++
			ctx.Counters.Rewrites++
			// Live mappings were shot down by the rewrite; re-promote
			// them now instead of waiting for refaults (must run
			// without ino.mu held — the hook probes back through
			// ProbeHuge).
			fs.notifyPromote(ctx, ino)
		}
		fs.rewriteMu.Lock()
		if retry && !fs.unmounted.Load() {
			// Aligned space ran out mid-drain: push the file back (guard
			// stays set; the chunks already fixed stay fixed) and stop —
			// the next defrag pass re-forms more aligned extents before
			// retrying.
			fs.rewriteQ = append(fs.rewriteQ, ino)
			fs.rewriteMu.Unlock()
			return done
		}
		delete(fs.rewriteQueued, ino)
		fs.rewriteMu.Unlock()
	}
}

// rewriteFile is the rewriter's policy over relocate: move each
// fragmented full chunk of the file onto a fresh aligned hugepage, one
// moverHold per chunk so foreground operations interleave and the pacing
// falls between the holds. done: this call moved data and left every full
// chunk hugepage-mappable (a file already in that state costs no copy and
// is not a rewrite). retry: aligned space ran out — the chunks fixed so far
// stay fixed, the rest waits for the defragmenter to re-form extents.
func (fs *FS) rewriteFile(ctx *sim.Ctx, ino *inode, pacer *sim.Pacer) (done, retry bool) {
	// Identity check: the inode may have been freed — and its number
	// reused by a new file — while queued. The shard map holds the live
	// object for the number; rewriting anything else would churn a file
	// that was never mmapped fragmented.
	if fs.writable() != nil || fs.getInode(ino.ino) != ino {
		return false, false
	}
	for lo := int64(0); !fs.unmounted.Load(); lo += BlocksPerHuge {
		var moved, more bool
		var err error
		fs.moverHold(ctx, ino, pacer, func() { moved, more, err = fs.rewriteChunkLocked(ctx, ino, lo) })
		if err != nil {
			return false, errors.Is(err, vfs.ErrNoSpace)
		}
		if !more {
			return done, false
		}
		done = done || moved
	}
	return false, false
}

// rewriteChunkLocked moves file blocks [lo, lo+BlocksPerHuge) onto one
// aligned hugepage if they are fragmented. Caller holds the inode lock and
// ino.mu exclusively. more=false: lo lies past the last full chunk (or the
// file is gone). vfs.ErrNoSpace: no aligned extent was free — hole space
// would burn a copy and still not be hugepage-mappable, so there is no
// fallback. Any other error is a media fault that left the old layout in
// place.
func (fs *FS) rewriteChunkLocked(ctx *sim.Ctx, ino *inode, lo int64) (moved, more bool, err error) {
	end := lo + BlocksPerHuge
	if ino.typ != typeFile || end*BlockSize > ino.size {
		return false, false, nil
	}
	if !ino.fragmentedAt(lo) {
		return false, true, nil
	}
	huge, ok := fs.alloc.allocAligned(ctx, fs.txCPU(ctx))
	if !ok {
		return false, true, vfs.ErrNoSpace
	}
	// Piece by piece, relocateChunkBlocks at a time: each swap is one journal
	// transaction, so a crash anywhere inside the chunk leaves every block
	// mapped to an intact copy.
	var sc moveScratch
	for cur := lo; cur < end; cur += relocateChunkBlocks {
		piece := alloc.Extent{Start: huge + cur - lo, Len: min(end-cur, relocateChunkBlocks)}
		if err := fs.relocate(ctx, ino, cur, piece.Len, []alloc.Extent{piece}, "rewrite", &sc); err != nil {
			// relocate freed its own piece; the rest of the hugepage was
			// never mapped.
			fs.alloc.free(ctx, alloc.Extent{Start: piece.End(), Len: end - cur - piece.Len})
			return false, true, err
		}
	}
	return true, true, nil
}
