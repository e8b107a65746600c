package winefs

import (
	"repro/internal/alloc"
	"repro/internal/sim"
)

// Extent relocation: the one mechanism behind every background data
// mover. The defragmenter (defrag.go), the tier migrator (tier.go) and
// the reactive rewriter (rewrite.go) are policies — which run to move,
// where to put it, how much per call, how hard to pace — over moverHold,
// which owns the locking rule they share (hold for the move, sleep after
// the release), and relocate, which owns the ordering rule:
//
//	copy durable → journaled swap → invalidate before free
//
// The destination holds a fenced non-temporal copy before the transaction
// opens; the extent-map swap is the only decision point (a crash before
// the commit rolls back to the old blocks, and the next mount's extent
// scan reclaims the copy); and detachRange shoots down live mappings
// before the displaced blocks return to the allocator. cowRange is not a
// relocation — it lays down new user bytes — and calls replaceRange
// itself.

// relocateChunkBlocks caps one copy of the tier migrator and the rewriter
// (one journal transaction, one stretch of device occupation foreground
// transfers must wait out and, in the tier paths, one inode-lock hold: the
// copy and the swap, never the throttle — see moverHold): 128 blocks =
// 512KiB. It is the migration tail-latency knob: the slow device
// charges ~50us per 4KiB page, so a full-hugepage copy would pin the lock
// and the device ports for ~26ms per promotion — and promotions, by
// definition, target the files readers are hammering right now. The
// defragmenter moves whole runs, which one hugepage chunk bounds already.
const relocateChunkBlocks = 128

// moveScratch is the storage a mover keeps from move to move: relocate's
// copy buffer and the destination list migrateRunLocked allocates into.
// TierPass and DefragPass keep theirs in fs.maint; a caller that keeps
// none passes a zero one.
type moveScratch struct {
	buf []byte
	dst []alloc.Extent
}

// copyBuf returns n bytes of sc's buffer, grown as needed.
func (sc *moveScratch) copyBuf(n int64) []byte {
	if int64(cap(sc.buf)) < n {
		sc.buf = make([]byte, n)
	}
	return sc.buf[:n]
}

// moverHold is how every paced mover takes an inode, and the rule it
// keeps is that a mover never sleeps holding a lock: body runs under the
// exclusive inode lock and ino.mu, both are released, and only then is the
// pacer paid for the virtual time body worked. The duty cycle bounds the
// maintenance thread; the lock hold is what bounds the foreground — paced
// inside the hold, a budget of 0.1 keeps every reader of the file waiting
// out ten times the copy.
func (fs *FS) moverHold(ctx *sim.Ctx, ino *inode, pacer *sim.Pacer, body func()) {
	work := func() int64 {
		h := ino.lock().Lock(ctx)
		defer h.Unlock(ctx)
		ino.mu.Lock()
		defer ino.mu.Unlock()
		start := ctx.Now()
		body()
		return ctx.Now() - start
	}()
	pacer.Pace(ctx, work)
}

// relocate moves file blocks [fileLo, fileLo+n) of ino onto dst, which
// the caller allocated and which totals exactly n blocks. The caller
// holds the inode lock and ino.mu exclusively. The swap is one journal
// transaction however many extents the range displaces. The copy goes
// through sc's buffer. On error dst has been freed and the file still
// reads through its old blocks.
func (fs *FS) relocate(ctx *sim.Ctx, ino *inode, fileLo, n int64, dst []alloc.Extent, tag string, sc *moveScratch) (err error) {
	defer func() {
		if err != nil {
			for _, e := range dst {
				fs.alloc.free(ctx, e) // routed: slow blocks return to the tier pool
			}
		}
	}()
	buf := sc.copyBuf(n * BlockSize)
	// A media fault on the source aborts the move: the old layout stays and
	// the application keeps getting EIO only for the poisoned bytes.
	if _, err = fs.readRange(ctx, ino, buf, fileLo*BlockSize, false); err != nil {
		return err
	}
	var off int64
	for _, e := range dst {
		fs.dataWrite(ctx, buf[off:off+e.Len*BlockSize], e.StartByte())
		off += e.Len * BlockSize
	}
	fs.dev.Fence(ctx)
	tx := fs.begin(ctx, ino)
	return tx.finish(tag, fs.replaceRange(ctx, tx, ino, fileLo, fileLo+n, dst))
}
