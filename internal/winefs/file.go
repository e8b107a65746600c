package winefs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File is an open WineFS file handle.
type File struct {
	fs     *FS
	ino    *inode
	closed bool
}

var _ vfs.File = (*File)(nil)

// Ino implements vfs.File.
func (f *File) Ino() uint64 { return f.ino.ino }

// Size implements vfs.File.
func (f *File) Size() int64 {
	f.ino.mu.RLock()
	defer f.ino.mu.RUnlock()
	return f.ino.size
}

// Close implements vfs.File.
func (f *File) Close(ctx *sim.Ctx) error {
	f.closed = true
	return nil
}

// findRun returns the physical block and contiguous run length backing
// fileBlk, via binary search over the sorted extent list. Caller holds
// ino.mu.
func (ino *inode) findRun(fileBlk int64) (phys int64, run int64, ok bool) {
	i := ino.extentAt(fileBlk)
	if i < 0 {
		return 0, 0, false
	}
	e := ino.extents[i]
	return e.blk + (fileBlk - e.fileBlk), e.length - (fileBlk - e.fileBlk), true
}

// extentAt returns the index of the extent covering fileBlk, or -1, by
// binary search over the sorted extent list. Caller holds ino.mu.
func (ino *inode) extentAt(fileBlk int64) int {
	exts := ino.extents
	i := sort.Search(len(exts), func(i int) bool {
		return exts[i].fileBlk+exts[i].length > fileBlk
	})
	if i == len(exts) || exts[i].fileBlk > fileBlk {
		return -1
	}
	return i
}

// nextExtentStart returns the first extent fileBlk strictly greater than
// fileBlk, or max if none. Caller holds ino.mu.
func (ino *inode) nextExtentStart(fileBlk, max int64) int64 {
	exts := ino.extents
	i := sort.Search(len(exts), func(i int) bool { return exts[i].fileBlk > fileBlk })
	if i == len(exts) || exts[i].fileBlk >= max {
		return max
	}
	return exts[i].fileBlk
}

// ReadAt implements vfs.File. Reads past EOF are truncated; holes in
// sparse files read as zeros.
func (f *File) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	ino := f.ino
	// Shared inode lock: concurrent readers (and disjoint range writers)
	// overlap in virtual time; only exclusive metadata ops are waited for.
	h := ino.lock().RLock(ctx)
	defer h.Unlock(ctx)
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if off >= ino.size {
		return 0, nil
	}
	if off+int64(len(p)) > ino.size {
		p = p[:ino.size-off]
	}
	read, err := f.fs.readRange(ctx, ino, p, off, true)
	if err != nil {
		err = mapDevErr(err) // not on the hot path: its errors.As targets escape
	}
	return read, err
}

// readRange reads file bytes [off, off+len(p)) through the extent map and
// returns how many it read (caller holds ino.mu at least shared). Holes
// read as zeros. A corrupt extent record can point anywhere and a
// poisoned line fails the read: either way the caller gets an error,
// never garbage. touch records a reference to every extent read — a
// foreground read is an access, a mover's copy (relocate) is not.
func (fs *FS) readRange(ctx *sim.Ctx, ino *inode, p []byte, off int64, touch bool) (int, error) {
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, ok := ino.findRun(blk)
		if !ok {
			// Sparse hole: zero fill up to the next extent.
			holeEnd := ino.nextExtentStart(blk, (off+int64(len(p))+BlockSize-1)/BlockSize) * BlockSize
			n := holeEnd - pos
			if n > int64(len(p)-read) {
				n = int64(len(p) - read)
			}
			z := p[read : read+int(n)]
			for i := range z {
				z[i] = 0
			}
			read += int(n)
			continue
		}
		n := run*BlockSize - in
		if n > int64(len(p)-read) {
			n = int64(len(p) - read)
		}
		if err := fs.dataCheckRange(phys*BlockSize+in, n); err != nil {
			return read, err
		}
		if err := fs.dataReadChecked(ctx, p[read:read+int(n)], phys*BlockSize+in); err != nil {
			return read, err
		}
		if touch {
			fs.touchExtent(ino, blk, true)
		}
		read += int(n)
	}
	return read, nil
}

// recAppend adds an extent to the file, merging with a logically and
// physically adjacent neighbour when possible (sequential appends carve
// contiguous space from the same hole, so merging keeps appended files in
// a few large extents — without it every 4KiB append would add a record).
func (fs *FS) recAppend(ctx *sim.Ctx, tx *mtx, ino *inode, e wextent) error {
	// i is where e belongs in the sorted list: past every extent that
	// starts at or before it.
	i := sort.Search(len(ino.extents), func(i int) bool {
		return ino.extents[i].fileBlk > e.fileBlk
	})
	// Try to extend the predecessor covering fileBlk-1.
	if i > 0 {
		p := &ino.extents[i-1]
		if p.fileBlk+p.length == e.fileBlk && p.blk+p.length == e.blk {
			tx.note(ino, undoSet, i-1)
			p.length += e.length
			p.usage = p.join(e.usage)
			return fs.writeExtentSlot(ctx, tx, ino, i-1)
		}
	}
	// Or prepend to the successor.
	if i < len(ino.extents) {
		nx := &ino.extents[i]
		if e.fileBlk+e.length == nx.fileBlk && e.blk+e.length == nx.blk {
			tx.note(ino, undoSet, i)
			nx.fileBlk = e.fileBlk
			nx.blk = e.blk
			nx.length += e.length
			nx.usage = nx.join(e.usage)
			return fs.writeExtentSlot(ctx, tx, ino, i)
		}
	}
	// A record of its own: the next PM slot (records stay dense), list
	// position i.
	tx.note(ino, undoInsert, i)
	ino.slots = slices.Insert(ino.slots, i, len(ino.slots))
	ino.extents = slices.Insert(ino.extents, i, e)
	return fs.writeExtentSlot(ctx, tx, ino, i)
}

// recUpdate replaces DRAM extent i with e and persists it to its PM record.
func (fs *FS) recUpdate(ctx *sim.Ctx, tx *mtx, ino *inode, i int, e wextent) error {
	tx.note(ino, undoSet, i)
	ino.extents[i] = e
	return fs.writeExtentSlot(ctx, tx, ino, i)
}

// recRemove deletes DRAM extent i, keeping PM records dense by moving the
// last record into the vacated slot.
func (fs *FS) recRemove(ctx *sim.Ctx, tx *mtx, ino *inode, i int) error {
	r := ino.slots[i]
	if lastRec := len(ino.extents) - 1; r != lastRec {
		// Find the DRAM entry occupying the last record and move it to r.
		k := slices.Index(ino.slots, lastRec)
		tx.note(ino, undoSet, k)
		ino.slots[k] = r
		if err := fs.writeExtentSlot(ctx, tx, ino, k); err != nil {
			return err
		}
	}
	tx.note(ino, undoRemove, i)
	ino.extents = slices.Delete(ino.extents, i, i+1)
	ino.slots = slices.Delete(ino.slots, i, i+1)
	return nil
}

// allocRange allocates backing for every unbacked block in
// [startBlk, endBlk), zeroing only [zeroSkipStart, zeroSkipEnd) edges as
// needed (the skipped byte range is about to be overwritten by the caller).
// wantAligned forces the alignment-aware allocator's aligned path.
func (f *File) allocRange(ctx *sim.Ctx, tx *mtx, startBlk, endBlk int64, wantAligned bool, skipZeroStart, skipZeroEnd int64) error {
	fs := f.fs
	ino := f.ino
	b := startBlk
	for b < endBlk {
		if _, run, ok := ino.findRun(b); ok {
			b += run
			continue
		}
		gapEnd := ino.nextExtentStart(b, endBlk)
		need := gapEnd - b
		// Hugepage-sized pieces always come from the aligned pool (inside
		// alloc); round the tail up to a full aligned extent only for
		// xattr-hinted files starting at an aligned file offset.
		roundUp := wantAligned && b%BlocksPerHuge == 0
		n0 := len(tx.took)
		var err error
		if tx.took, err = fs.allocData(ctx, tx.cpu, need, roundUp, tx.took); err != nil {
			return err
		}
		fileBlk := b
		// Ranging over the new tail of took is safe though recAppend may
		// append to it (an indirect block): the range holds its own slice.
		for _, e := range tx.took[n0:] {
			// Zero the parts of the new blocks the caller won't overwrite.
			zs := fileBlk * BlockSize
			ze := (fileBlk + e.Len) * BlockSize
			f.zeroEdges(ctx, e, zs, ze, skipZeroStart, skipZeroEnd)
			if err := fs.recAppend(ctx, tx, ino, wextent{fileBlk: fileBlk, blk: e.Start, length: e.Len}); err != nil {
				return err
			}
			fileBlk += e.Len
		}
		b = gapEnd
	}
	return nil
}

// zeroEdges zeroes the portions of a fresh extent (covering file bytes
// [zs, ze)) that fall outside the caller's impending write [skipS, skipE).
func (f *File) zeroEdges(ctx *sim.Ctx, e alloc.Extent, zs, ze, skipS, skipE int64) {
	physBase := e.StartByte()
	if skipE <= zs || skipS >= ze {
		f.fs.dataZero(ctx, physBase, ze-zs)
		return
	}
	if skipS > zs {
		f.fs.dataZero(ctx, physBase, skipS-zs)
	}
	if skipE < ze {
		f.fs.dataZero(ctx, physBase+(skipE-zs), ze-skipE)
	}
}

// WriteAt implements vfs.File.
func (f *File) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return f.write(ctx, p, off)
}

// Append implements vfs.File.
func (f *File) Append(ctx *sim.Ctx, p []byte) (int, error) {
	f.ino.mu.RLock()
	off := f.ino.size
	f.ino.mu.RUnlock()
	return f.write(ctx, p, off)
}

// rangeWritableLocked reports whether [off, end) can be served as a pure
// in-place overwrite under a byte-range lock: fully backed, within the
// current size, and — in strict mode — every backing extent on the
// data-journal path (copy-on-write rewrites the extent map, which is
// metadata and therefore needs the exclusive inode lock). Caller holds
// ino.mu.
func (ino *inode) rangeWritableLocked(mode vfs.ConsistencyMode, off, end int64) bool {
	if end > ino.size {
		return false
	}
	endBlk := (end + BlockSize - 1) / BlockSize
	for b := off / BlockSize; b < endBlk; {
		_, run, ok := ino.findRun(b)
		if !ok {
			return false
		}
		if mode == vfs.Strict && !ino.extentAlignedAtLocked(b) {
			return false
		}
		b += run
	}
	return true
}

func (f *File) write(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	ino := f.ino

	// Fast path: an overwrite of already-allocated bytes changes no
	// metadata, so it only needs to exclude writers touching overlapping
	// byte ranges — disjoint writers to the same file proceed in parallel
	// in virtual time. Probe without the lock, then recheck with the range
	// held (a concurrent truncate or CoW may have changed the layout).
	ino.mu.RLock()
	fast := ino.rangeWritableLocked(fs.mode, off, off+int64(len(p)))
	ino.mu.RUnlock()
	if fast {
		if n, ok, err := f.writeRange(ctx, p, off); ok {
			return n, err
		}
	}

	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	n := int64(len(p))
	end := off + n
	startBlk := off / BlockSize
	endBlk := (end + BlockSize - 1) / BlockSize
	oldSize := ino.size

	// A pure in-place overwrite (no allocation, no size change) touches no
	// metadata: it needs no journal transaction at all — only the hybrid
	// data-atomicity machinery. The transaction is created lazily by the
	// paths that mutate metadata.
	var tx *mtx
	getTx := func() *mtx {
		if tx == nil {
			tx = fs.begin(ctx, ino)
		}
		return tx
	}
	// fail rolls back the open transaction (if any) and maps the error; a
	// media fault additionally degrades the file system to read-only.
	fail := func(err error) error {
		if tx != nil {
			return fs.failTx(tx, "write", err)
		}
		if isMediaErr(err) {
			fs.degrade("media error during write: %v", err)
		}
		return mapDevErr(err)
	}

	// A write starting past a mid-block EOF exposes the stale tail of the
	// old last block: zero it so the gap reads as zero.
	if off > oldSize && oldSize%BlockSize != 0 {
		if phys, _, ok := ino.findRun(oldSize / BlockSize); ok {
			tail := min(BlockSize-oldSize%BlockSize, off-oldSize)
			fs.dataZero(ctx, phys*BlockSize+oldSize%BlockSize, tail)
		}
	}

	needAlloc := false
	for b := startBlk; b < endBlk; {
		_, run, ok := ino.findRun(b)
		if !ok {
			needAlloc = true
			break
		}
		b += run
	}
	if needAlloc {
		// Hugepage-sized pieces of the request are served from the aligned
		// pool automatically; only the xattr hint forces the tail to round
		// up to a full aligned extent (§3.6).
		wantAligned := ino.flags&flagAligned != 0
		if err := f.allocRange(ctx, getTx(), startBlk, endBlk, wantAligned, off, end); err != nil {
			return 0, fail(err)
		}
	}

	// Strict mode must make the data update atomic. The hybrid scheme
	// (§3.4, "Data Atomicity") journals in-place updates of aligned extents
	// and copies-on-write updates of unaligned holes. Only bytes that
	// existed before this call (off < oldSize, in blocks allocRange did not
	// just attach) are overwrites.
	var fresh []alloc.Extent
	if tx != nil {
		fresh = tx.took
	}
	if err := f.writeData(ctx, getTx, fresh, p, off, oldSize); err != nil {
		return 0, fail(err)
	}
	if end > ino.size {
		getTx()
		ino.size = end
	}
	// Whatever made the call open a transaction — blocks attached in a hole
	// or past EOF, a copy-on-write, a new size — changed the header.
	if tx != nil {
		if err := tx.finish("write", nil); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// writeRange is the byte-range fast path: bytes [off, off+len(p)) are
// overwritten in place while holding the inode shared plus the range
// exclusively. ok=false means the layout changed between the caller's
// probe and the lock (truncate, CoW) — the range has been released and the
// caller must retry on the exclusive slow path.
func (f *File) writeRange(ctx *sim.Ctx, p []byte, off int64) (n int, ok bool, err error) {
	fs := f.fs
	ino := f.ino
	h := ino.lock().LockRange(ctx, off, int64(len(p)))
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if !ino.rangeWritableLocked(fs.mode, off, off+int64(len(p))) {
		return 0, false, nil
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, found := ino.findRun(blk)
		if !found {
			return 0, false, nil // unreachable after the recheck
		}
		chunk := run*BlockSize - in
		if chunk > int64(len(p)-written) {
			chunk = int64(len(p) - written)
		}
		if fs.mode == vfs.Strict {
			// Data journaling only: the recheck guarantees no block needs
			// copy-on-write, so the extent map is never touched here.
			fs.chargeDataJournal(ctx, chunk)
		}
		fs.dataWrite(ctx, p[written:written+int(chunk)], phys*BlockSize+in)
		fs.touchExtent(ino, blk, true)
		written += int(chunk)
	}
	if fs.mode == vfs.Strict {
		fs.dev.Fence(ctx)
	}
	return len(p), true, nil
}

// writeData moves p into the file at off, applying the hybrid atomicity
// policy for the overwritten prefix. fresh are the blocks this call
// allocated: they held nothing before it, so writing them is never an
// overwrite. getTx materialises the journal transaction lazily (only the
// CoW path needs one).
func (f *File) writeData(ctx *sim.Ctx, getTx func() *mtx, fresh []alloc.Extent, p []byte, off, oldSize int64) error {
	fs := f.fs
	ino := f.ino
	overwriteEnd := oldSize
	if off+int64(len(p)) < overwriteEnd {
		overwriteEnd = off + int64(len(p))
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, ok := ino.findRun(blk)
		if !ok {
			return vfs.ErrNoSpace // allocRange must have covered everything
		}
		isOverwrite := pos < overwriteEnd
		if isOverwrite {
			// An extent may merge fresh blocks with old ones (recAppend):
			// in strict mode the chunk stops where freshness changes.
			isFresh, freshRun := freshSpan(fresh, phys, run)
			isOverwrite = !isFresh
			if fs.mode == vfs.Strict {
				run = freshRun
			}
		}
		chunk := run*BlockSize - in
		if chunk > int64(len(p)-written) {
			chunk = int64(len(p) - written)
		}
		if isOverwrite && fs.mode == vfs.Strict {
			ovEnd := pos + chunk
			if ovEnd > overwriteEnd {
				ovEnd = overwriteEnd
			}
			if ino.extentAlignedAtLocked(blk) {
				// Data journaling: old contents logged, then updated in
				// place — the layout (and hence hugepages) is preserved.
				fs.chargeDataJournal(ctx, ovEnd-pos)
			} else {
				// Copy-on-write into fresh holes.
				if err := f.cowRange(ctx, getTx(), p[written:written+int(chunk)], pos); err != nil {
					return err
				}
				fs.touchExtent(ino, blk, true) // an access like the in-place write below
				written += int(chunk)
				continue
			}
		}
		fs.dataWrite(ctx, p[written:written+int(chunk)], phys*BlockSize+in)
		// Writing the bytes this call creates is not a reference to them.
		fs.touchExtent(ino, blk, isOverwrite)
		written += int(chunk)
	}
	if fs.mode == vfs.Strict {
		fs.dev.Fence(ctx)
	}
	return nil
}

// freshSpan reports whether physical block b is in one of fresh's extents,
// and how many of the run blocks from b on share that answer.
func freshSpan(fresh []alloc.Extent, b, run int64) (bool, int64) {
	for _, e := range fresh {
		if b >= e.Start && b < e.End() {
			return true, min(run, e.End()-b)
		}
		if e.Start > b {
			run = min(run, e.Start-b)
		}
	}
	return false, run
}

// dataJournalMinBlocks is the extent size above which WineFS prefers data
// journaling over copy-on-write even when the extent is not hugepage
// aligned: §3.4's trade-off is "incurring the extra write for preserving
// data layout (when it matters), and using copy-on-write when preserving
// the data layout does not matter" — layout matters for any large
// contiguous run, not only for already-aligned ones.
const dataJournalMinBlocks = 64

// extentAlignedAtLocked reports whether the extent backing fileBlk should
// be updated via data journaling (aligned hugepage extent, or a large
// contiguous run whose layout is worth preserving).
func (ino *inode) extentAlignedAtLocked(fileBlk int64) bool {
	i := ino.extentAt(fileBlk)
	if i < 0 {
		return false
	}
	e := ino.extents[i]
	if e.blk%BlocksPerHuge == 0 && e.length >= BlocksPerHuge {
		return true
	}
	return e.length >= dataJournalMinBlocks
}

// chargeDataJournal accounts the extra journal write data journaling costs
// (the data is written twice: once to the journal, once in place).
func (fs *FS) chargeDataJournal(ctx *sim.Ctx, n int64) {
	ctx.Counters.JournalBytes += n
	// The data journal is written with sequential non-temporal stores at a
	// fraction of the random in-place cost.
	ns := int64(float64(n) * fs.model.CopyWriteNSPerByte * 0.6)
	if n <= 256 {
		ns = fs.model.WriteLat64
	}
	ctx.Advance(ns)
	ctx.Counters.PMWriteBytes += n
}

// cowRange implements copy-on-write for a byte range backed by unaligned
// holes: new hole blocks are allocated, untouched edge bytes copied over,
// the new data written, and the extent map switched in the transaction.
func (f *File) cowRange(ctx *sim.Ctx, tx *mtx, p []byte, off int64) error {
	fs := f.fs
	ino := f.ino
	startBlk := off / BlockSize
	end := off + int64(len(p))
	endBlk := (end + BlockSize - 1) / BlockSize
	nBlks := endBlk - startBlk

	n0 := len(tx.took)
	var ok bool
	if tx.took, ok = fs.allocDataSmall(ctx, tx.cpu, nBlks, tx.took); !ok {
		return vfs.ErrNoSpace
	}
	newExts := tx.took[n0:] // its own slice: replaceRange may append to took
	ctx.Counters.CoWCopies += nBlks

	// Copy edge bytes the write doesn't cover, then lay down the new data.
	buf := tx.blk[:]
	fileBlk := startBlk
	for _, e := range newExts {
		for nb := e.Start; nb < e.End(); nb, fileBlk = nb+1, fileBlk+1 {
			oldPhys, _, okOld := ino.findRun(fileBlk)
			bs := fileBlk * BlockSize
			be := bs + BlockSize
			ws := max(off, bs)
			we := min(end, be)
			if okOld && (ws > bs || we < be) {
				if err := fs.dataReadChecked(ctx, buf, oldPhys*BlockSize); err != nil {
					return err
				}
				fs.dataWrite(ctx, buf, nb*BlockSize)
			}
			fs.dataWrite(ctx, p[ws-off:we-off], nb*BlockSize+(ws-bs))
		}
	}
	fs.dev.Fence(ctx)

	// Atomically swap the extent map for [startBlk, endBlk).
	return fs.replaceRange(ctx, tx, ino, startBlk, endBlk, newExts)
}

// detachRange unmaps file blocks [startBlk, endBlk) in the transaction;
// the displaced physical extents go on tx.dropped, which finish frees. This
// is where the invalidate-before-free rule lives: live mappings are shot
// down here, under ino.mu, so no translation survives to the point where
// the blocks go back to the allocator; refaults resolve through the new
// layout (or, past a new EOF, get vfs.ErrMapFault). Returns the joined usage
// of the extents the range overlapped, for a caller that puts the data back
// (replaceRange). Caller holds ino.mu.
func (fs *FS) detachRange(ctx *sim.Ctx, tx *mtx, ino *inode, startBlk, endBlk int64) (u usage, err error) {
	n0 := len(tx.dropped)
	// The extents are sorted and disjoint: those that overlap the range
	// are consecutive, from the first that ends past startBlk.
	i := sort.Search(len(ino.extents), func(i int) bool {
		return ino.extents[i].fileBlk+ino.extents[i].length > startBlk
	})
	for i < len(ino.extents) && ino.extents[i].fileBlk < endBlk {
		e := ino.extents[i]
		u = u.join(e.usage)
		eEnd := e.fileBlk + e.length
		ovS := max(e.fileBlk, startBlk)
		ovE := min(eEnd, endBlk)
		tx.dropped = append(tx.dropped, alloc.Extent{Start: e.blk + (ovS - e.fileBlk), Len: ovE - ovS})
		head, tail := e, e // what stays of e before and after the overlap
		head.length = ovS - e.fileBlk
		tail.fileBlk, tail.blk, tail.length = ovE, e.blk+(ovE-e.fileBlk), eEnd-ovE
		switch {
		case head.length == 0 && tail.length == 0:
			err = fs.recRemove(ctx, tx, ino, i) // the next extent is at i now
		case head.length == 0:
			err = fs.recUpdate(ctx, tx, ino, i, tail)
			i++
		case tail.length == 0:
			err = fs.recUpdate(ctx, tx, ino, i, head)
			i++
		default:
			// Split: the head keeps the record, the tail gets its own (and
			// lands at i+1: it starts at endBlk, which ends the walk). Both
			// keep e's usage — the data was as hot, and as referenced, on
			// either side of the cut.
			if err = fs.recUpdate(ctx, tx, ino, i, head); err == nil {
				err = fs.recAppend(ctx, tx, ino, tail)
			}
			i++
		}
		if err != nil {
			return u, err
		}
	}
	if len(tx.dropped) > n0 {
		for _, m := range ino.mappings {
			m.Invalidate()
		}
	}
	return u, nil
}

// replaceRange rewrites the extent map so [startBlk, endBlk) is backed by
// newExts (in order); the displaced blocks are freed at commit. Usage
// follows the data, not the extent record: what is attached starts as hot
// and as referenced as the extents it displaces, so a copy-on-write or a
// relocation neither makes a hot range look never touched nor a range that
// was read back look dead to the next TierPass. Caller holds ino.mu.
func (fs *FS) replaceRange(ctx *sim.Ctx, tx *mtx, ino *inode, startBlk, endBlk int64, newExts []alloc.Extent) error {
	u, err := fs.detachRange(ctx, tx, ino, startBlk, endBlk)
	if err != nil {
		return err
	}
	fileBlk := startBlk
	for _, e := range newExts {
		l := e.Len
		if fileBlk+l > endBlk {
			l = endBlk - fileBlk
		}
		if err := fs.recAppend(ctx, tx, ino, wextent{fileBlk: fileBlk, blk: e.Start, length: l, usage: u}); err != nil {
			return err
		}
		fileBlk += l
	}
	return nil
}

// Truncate implements vfs.File. Growing is sparse (no allocation —
// LMDB-style ftruncate); shrinking frees whole blocks past the new end.
func (f *File) Truncate(ctx *sim.Ctx, size int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return err
	}
	fs := f.fs
	ino := f.ino
	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	tx := fs.begin(ctx, ino)
	var err error
	if size < ino.size {
		// POSIX: if the file grows again later, bytes past the new EOF must
		// read as zero — zero the stale tail of the last kept block now.
		if size%BlockSize != 0 {
			if phys, _, ok := ino.findRun(size / BlockSize); ok {
				tail := BlockSize - size%BlockSize
				fs.dataZero(ctx, phys*BlockSize+size%BlockSize, tail)
			}
		}
		_, err = fs.detachRange(ctx, tx, ino, (size+BlockSize-1)/BlockSize, math.MaxInt64)
	}
	ino.size = size
	return tx.finish("truncate", err)
}

// Fallocate implements vfs.File: preallocates and zero-fills the range
// (zeroing at allocation time keeps WineFS page faults cheap, in contrast
// to ext4-DAX's zero-on-fault — see Table 2 discussion).
func (f *File) Fallocate(ctx *sim.Ctx, off, n int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return err
	}
	fs := f.fs
	ino := f.ino
	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	startBlk := off / BlockSize
	endBlk := (off + n + BlockSize - 1) / BlockSize
	tx := fs.begin(ctx, ino)
	wantAligned := ino.flags&flagAligned != 0
	// skip-zero range is empty: zero everything newly allocated.
	err := f.allocRange(ctx, tx, startBlk, endBlk, wantAligned, -1, -1)
	ino.size = max(ino.size, off+n)
	return tx.finish("fallocate", err)
}

// Fsync implements vfs.File. All WineFS metadata (and, in strict mode,
// data) is already durable when the syscall returns, and relaxed-mode data
// went out as non-temporal copies that need no flush, so fsync in either
// mode is the syscall plus one fence — this is why fsync-heavy workloads
// (varmail, Figure 9) do well.
func (f *File) Fsync(ctx *sim.Ctx) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	f.fs.dev.Fence(ctx)
	return nil
}

// Extents implements vfs.File: the byte-addressable extents, built on
// demand (faults never need the whole list; they resolve through mapAt).
func (f *File) Extents() []mmu.Extent {
	ino := f.ino
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	out := make([]mmu.Extent, 0, len(ino.extents))
	for i := range ino.extents {
		if e, ok := ino.mapExtent(i); ok {
			out = append(out, e)
		}
	}
	return out
}

// mapExtent returns extent i in mmu form. Slow-tier extents are not
// byte-addressable and cannot be mapped: they answer false, so a DAX fault
// on their range misses and the fault path promotes them to PM first
// (Fault). Caller holds ino.mu.
func (ino *inode) mapExtent(i int) (mmu.Extent, bool) {
	e := ino.extents[i]
	if ino.fs.isSlow(e.blk) {
		return mmu.Extent{}, false
	}
	return mmu.Extent{FileOff: e.fileBlk * BlockSize, Phys: e.blk * BlockSize, Len: e.length * BlockSize}, true
}

// mapAt is how every mapping question is answered — Fault, ProbeHuge and
// the rewriter's fragmentation test: the base page at off (4KiB-aligned)
// resolved from the one extent that covers it, found by binary search of
// the extent list (mmu.Resolve: its whole chunk when that is hugepage-
// eligible). ok=false: a hole, or data on the slow tier. Caller holds
// ino.mu.
func (ino *inode) mapAt(off int64) (r mmu.FaultResult, ok bool) {
	i := ino.extentAt(off / BlockSize)
	if i < 0 {
		return r, false
	}
	e, ok := ino.mapExtent(i)
	if !ok {
		return r, false
	}
	return mmu.Resolve(e, off), true
}

// SetPathXattr sets an extended attribute by path — usable on directories
// as well as files (directory-level alignment inheritance, §3.6).
func (fs *FS) SetPathXattr(ctx *sim.Ctx, path, name string, value []byte) error {
	ctx.Syscall(fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil
	}
	if err := fs.writable(); err != nil {
		return err
	}
	ino, err := fs.resolve(ctx, path)
	if err != nil {
		return err
	}
	return fs.setAligned(ctx, ino)
}

// SetXattr implements vfs.File. Setting XattrAligned persists the
// alignment hint (§3.6, "Supporting extended attributes").
func (f *File) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil // only the alignment attribute is modelled
	}
	if err := f.fs.writable(); err != nil {
		return err
	}
	return f.fs.setAligned(ctx, f.ino)
}

// setAligned journals the alignment flag into the inode header.
func (fs *FS) setAligned(ctx *sim.Ctx, ino *inode) error {
	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()
	tx := fs.begin(ctx, ino)
	ino.flags |= flagAligned
	return tx.finish("setxattr", nil)
}

// GetXattr implements vfs.File.
func (f *File) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if name != vfs.XattrAligned {
		return nil, false
	}
	h := f.ino.lock().RLock(ctx)
	defer h.Unlock(ctx)
	f.ino.mu.RLock()
	defer f.ino.mu.RUnlock()
	if f.ino.flags&flagAligned != 0 {
		return []byte("1"), true
	}
	return nil, false
}

// Mmap implements vfs.File; AttachMapping queues a layout that defeats
// hugepages for reactive rewriting (§3.6).
func (f *File) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return vfs.Mmap(ctx, f, length)
}

// Fault implements mmu.FaultHandler: resolve the base page at pageOff.
// Pages inside an aligned, fully backed 2MiB chunk map as hugepages;
// unbacked pages are allocated on demand (sparse ftruncate growth), taking
// a whole aligned extent when the chunk lies within the file so the fault
// can still be served with a hugepage.
func (f *File) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	fs := f.fs
	ino := f.ino
	chunkOff := pageOff / mmu.HugePage * mmu.HugePage

	ino.mu.RLock()
	r, ok := ino.mapAt(pageOff)
	ino.mu.RUnlock()
	if ok {
		return r, nil
	}

	// Demand allocation under the inode lock. A degraded (read-only) file
	// system cannot back new pages.
	if err := fs.writable(); err != nil {
		return mmu.FaultResult{}, err
	}
	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	// Re-check after taking the lock.
	if r, ok := ino.mapAt(pageOff); ok {
		return r, nil
	}

	// The page may be backed on the slow tier (mapAt answers no for those
	// extents — they are not byte-addressable). Promote it to PM and serve
	// the fault from the new location; falling through to demand allocation
	// would double-back the page and orphan the slow copy.
	if fblk := pageOff / BlockSize; fs.isSlow(blkAt(ino, fblk)) {
		if err := fs.writable(); err != nil {
			return mmu.FaultResult{}, err
		}
		if !fs.promoteRunLocked(ctx, ino, fblk) {
			return mmu.FaultResult{}, vfs.ErrNoSpace
		}
		if r, ok := ino.mapAt(pageOff); ok {
			return r, nil
		}
		return mmu.FaultResult{}, fmt.Errorf("winefs: fault at %d not backed after promotion: %w", pageOff, vfs.ErrMapFault)
	}

	// SIGBUS rule: demand allocation only backs pages inside the current
	// file size (read under the lock — a racing truncate/unlink may have
	// shrunk it). mmap rounds the file out to a page boundary; anything
	// past that is a typed fault error.
	size := ino.size
	if pageOff >= (size+BlockSize-1)/BlockSize*BlockSize {
		return mmu.FaultResult{}, fmt.Errorf("winefs: fault at %d beyond eof %d: %w", pageOff, size, vfs.ErrMapFault)
	}

	tx := fs.begin(ctx, ino)
	chunkBlk := chunkOff / BlockSize
	chunkFree := true
	for b := chunkBlk; b < chunkBlk+BlocksPerHuge; b++ {
		if _, _, ok := ino.findRun(b); ok {
			chunkFree = false
			break
		}
	}
	if chunkFree && chunkOff+mmu.HugePage <= size {
		// The whole chunk is unbacked and within the file: allocate one
		// aligned extent and serve a hugepage fault.
		if blk, ok := fs.alloc.allocAligned(ctx, tx.cpu); ok {
			tx.took = append(tx.took, alloc.Extent{Start: blk, Len: BlocksPerHuge})
			fs.dev.Zero(ctx, blk*BlockSize, alloc.HugeBytes)
			if err := tx.finish("fault", fs.recAppend(ctx, tx, ino, wextent{fileBlk: chunkBlk, blk: blk, length: BlocksPerHuge})); err != nil {
				return mmu.FaultResult{}, err
			}
			return mmu.FaultResult{Huge: true, Phys: blk * BlockSize}, nil
		}
	}
	// Fall back to a single base page from the hole pool.
	if tx.took, ok = fs.alloc.allocSmallTo(ctx, tx.cpu, 1, tx.took); !ok {
		return mmu.FaultResult{}, tx.finish("fault", vfs.ErrNoSpace)
	}
	blk := tx.took[len(tx.took)-1].Start
	fs.dev.Zero(ctx, blk*BlockSize, BlockSize)
	if err := tx.finish("fault", fs.recAppend(ctx, tx, ino, wextent{fileBlk: pageOff / BlockSize, blk: blk, length: 1})); err != nil {
		return mmu.FaultResult{}, err
	}
	return mmu.FaultResult{Phys: blk * BlockSize}, nil
}
