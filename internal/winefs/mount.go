package winefs

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Mount attaches to an existing WineFS on dev. If the superblock records a
// clean unmount the serialised allocator state is loaded; otherwise the
// per-CPU journals are recovered (uncommitted transactions rolled back) and
// the allocator is rebuilt by scanning the per-CPU inode tables in
// parallel (§3.6, "Crash Recovery and unmount").
func Mount(ctx *sim.Ctx, dev *pmem.Device, opts Options) (*FS, error) {
	var slowBlocks int64
	if opts.Tier != nil && opts.Tier.Slow != nil {
		slowBlocks = opts.Tier.Slow.Size() / BlockSize
	}
	// A poisoned or invalid superblock is not survivable: without the
	// geometry nothing else on the device can be located. Mount fails, with
	// EIO if the media did.
	im, err := openImage(dev, slowBlocks)
	if err != nil {
		return nil, mapDevErr(err)
	}
	dev.Read(ctx, make([]byte, sbSize), 0) // charge the superblock read

	fs := &FS{
		dev:    dev,
		as:     mmu.NewAddressSpace(dev),
		model:  dev.Model(),
		mode:   opts.Mode,
		g:      im.g,
		locks:  vfs.NewLockTable(),
		numaOn: opts.NUMAAware && dev.Nodes() > 1,
		homes:  make(map[int]int),
	}
	if err := fs.initTier(opts.Tier); err != nil {
		return nil, err
	}
	fs.shards = newShards(fs.g.cpus)
	fs.nextTxID = im.sb.nextTxID
	fs.alloc = newAllocator(fs)
	for c := 0; c < fs.g.cpus; c++ {
		j := &journal{fs: fs, cpu: c, base: fs.g.journalBase(c)}
		fs.journals = append(fs.journals, j)
		if err := j.load(); err != nil {
			fs.degrade("journal %d unreadable at mount: %v", c, err)
		}
	}

	if !im.sb.clean {
		// Crash path: roll back in-flight transactions first, then rebuild
		// everything from the (now consistent) inode tables.
		fs.recoverJournals(ctx)
		fs.rebuildFromScan(ctx, im, true)
	} else {
		// Clean path: no journal recovery, and the allocator's free
		// lists are deserialised from the unmount area instead of rebuilt
		// from the extents. The inode tables and dirent blocks are still
		// walked, and rebuildFromScan charges that scan on both paths, so
		// a clean mount costs a crash mount's scan plus the freelist read
		// (ROADMAP item 21).
		fs.rebuildFromScan(ctx, im, !fs.loadFreeState(ctx))
	}
	// The mount is live: mark the superblock dirty so a crash triggers
	// recovery. A degraded mount never writes — it serves reads only.
	if fs.writable() == nil {
		fs.writeSuper(ctx, false)
	}
	return fs, nil
}

// Unmount implements vfs.FS: serialise the DRAM allocator state and mark
// the superblock clean. A degraded mount changes nothing: the superblock
// stays dirty so the next mount re-runs recovery (or fsck -repair).
func (fs *FS) Unmount(ctx *sim.Ctx) error {
	if err := fs.writable(); err != nil {
		return err
	}
	// Stop the background maintenance paths first: a rewrite or defrag
	// pass racing past this point would mutate the image after the
	// allocator state below is serialised. Entries still queued are
	// dropped — the queue is advisory (a fragmented file re-queues at its
	// next mmap after remount).
	fs.unmounted.Store(true)
	fs.rewriteMu.Lock()
	fs.rewriteQ = nil
	fs.rewriteQueued = nil
	fs.rewriteMu.Unlock()
	// Wait out an in-flight maintenance pass (it checks unmounted between
	// candidates): a chunk still held during serialisation would leave
	// its free blocks out of the saved allocator state.
	fs.maintMu.Lock()
	fs.maintMu.Unlock()
	fs.saveFreeState(ctx)
	fs.writeSuper(ctx, true)
	return nil
}

// inodeScanCost is the virtual-time cost of examining one inode slot
// during the recovery scan.
const inodeScanCost = 180

// rebuildFromScan is the mount's policy over the image walker (image.go):
// from what the walker reads it reconstructs the DRAM inode cache, the
// directory indexes, and (when rebuildFree is true) the allocator free
// lists and inode free lists. A fault degrades the mount to read-only:
// what the walker did read stays usable — a file keeps the head of its
// list and reads the lost tail as holes, a lost slot's inode is simply
// absent — but what the fault hid is unknown, so nothing more is written.
// The walker's reads cost no virtual time; the scan is priced here, per
// slot examined, chain hop and record read, and the per-CPU scans run in
// parallel: the charged cost is the maximum over CPUs.
func (fs *FS) rebuildFromScan(ctx *sim.Ctx, im *image, rebuildFree bool) {
	if rebuildFree {
		fs.alloc.initEmpty()
	}
	fs.initInodeFree()

	start := ctx.Now()
	cpuCost := make([]int64, fs.g.cpus)
	for c := range cpuCost {
		cpuCost[c] = fs.g.inodesPerCPU * inodeScanCost
	}
	im.walkInodes(func(n *imageInode) {
		if n.fault != nil {
			fs.degrade("ino %d: %s", n.ino, n.fault)
			if n.lost() {
				// The slot may hold a live inode we can no longer prove
				// anything about: degrade rather than guess.
				return
			}
		}
		fs.removeFreeIno(n.cpu, int64(n.ino-1)%fs.g.inodesPerCPU)
		ino := fs.loadInode(n)
		cpuCost[n.cpu] += int64(max(len(n.chain)-1, 0))*int64(fs.model.ReadLat64) +
			int64(len(n.extents))*(int64(fs.model.ReadLat64)/4)
		// The slow-tier pool is DRAM-only and starts every mount all free:
		// slow extents replay into it (markUsed routes by tier) even when
		// the PM free lists came from the unmount area.
		for _, e := range ino.extents {
			if rebuildFree || fs.isSlow(e.blk) {
				fs.alloc.markUsed(e.blk, e.length)
			}
		}
		if rebuildFree {
			for _, blk := range ino.indirect {
				fs.alloc.markUsed(blk, 1)
			}
		}
		fs.putInode(ino)
	})
	// Parallel scan: total time = slowest CPU.
	ctx.AdvanceTo(start + slices.Max(cpuCost))

	// Second pass: rebuild each directory's DRAM red-black tree from its
	// dirent blocks, in file order.
	var exts []wextent
	for _, dir := range fs.snapshotInodes() {
		if dir.typ != typeDir {
			continue
		}
		exts = exts[:0]
		for _, e := range dir.extents {
			exts = append(exts, e.wextent)
		}
		im.walkDirents(exts, func(blk int64, ents []imageDirent, fault *imageFault) {
			ctx.Advance(int64(fs.model.ReadLat64))
			if fault != nil {
				// The entries in this block are unknowable: the namespace may
				// be missing files, so the mount is read-only from here on.
				fs.degrade("dir %d: %s", dir.ino, fault)
				return
			}
			for _, de := range ents {
				if !de.live || !im.inTable(de.ino) || fs.getInode(de.ino) == nil {
					// Free, or dangling (target rolled back): reusable.
					dir.dir.freeSlots = append(dir.dir.freeSlots, de.addr)
					continue
				}
				dir.dir.tree.Set(de.name, dentry{ino: de.ino, addr: de.addr})
			}
		})
	}
	if fs.getInode(1) == nil {
		// A formatted FS always has a root; restore a fresh one if the
		// image predates any successful create (defensive).
		root := &inode{fs: fs, ino: 1, typ: typeDir, nlink: 2, dir: newDirIndex()}
		fs.putInode(root)
		fs.removeFreeIno(0, 0)
	}
}

// loadInode builds the DRAM image of an inode the walker read: the live
// list is sorted by file offset (a mounted one is kept so by insertion,
// recAppend), and record i sits in PM slot i.
func (fs *FS) loadInode(n *imageInode) *inode {
	ino := &inode{
		fs:       fs,
		ino:      n.ino,
		typ:      n.di.typ,
		flags:    n.di.flags,
		size:     n.di.size,
		nlink:    n.di.nlink,
		extents:  make([]extRec, len(n.extents)),
		indirect: n.chain,
	}
	for i, e := range n.extents {
		ino.extents[i] = extRec{e, i}
	}
	slices.SortFunc(ino.extents, func(a, b extRec) int { return cmp.Compare(a.fileBlk, b.fileBlk) })
	if n.di.typ == typeDir {
		ino.dir = newDirIndex()
	}
	return ino
}

// --- free-state serialisation ----------------------------------------------

const freeStateMagic = 0x46524545 // "FREE"

// saveFreeState serialises the per-CPU allocator pools into the unmount
// area. If the state doesn't fit, the area is invalidated so the next
// mount falls back to a scan.
func (fs *FS) saveFreeState(ctx *sim.Ctx) {
	var buf []byte
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	u64(freeStateMagic)
	u64(uint64(fs.g.cpus))
	// Hold every group lock at once (acquired in index order; group locks
	// are never nested elsewhere, so this cannot deadlock): a serialised
	// state that mixes a group's pre-move view with its neighbour's
	// post-move view would double-count or leak the moved blocks on the
	// next clean mount.
	for _, g := range fs.alloc.groups {
		g.mu.Lock()
	}
	for _, g := range fs.alloc.groups {
		u64(uint64(len(g.aligned)))
		for _, b := range g.aligned {
			u64(uint64(b))
		}
		holes := g.holes.Extents()
		u64(uint64(len(holes)))
		for _, h := range holes {
			u64(uint64(h.Start))
			u64(uint64(h.Len))
		}
	}
	for i := len(fs.alloc.groups) - 1; i >= 0; i-- {
		fs.alloc.groups[i].mu.Unlock()
	}
	area := fs.g.unmountStart * BlockSize
	limit := fs.g.unmountBlocks * BlockSize
	if int64(len(buf)) > limit {
		// Doesn't fit: invalidate so mount rebuilds by scanning.
		fs.dev.Write(ctx, make([]byte, 8), area)
		fs.dev.Flush(ctx, area, 8)
		fs.dev.Fence(ctx)
		return
	}
	fs.dev.Write(ctx, buf, area)
	fs.dev.Flush(ctx, area, int64(len(buf)))
	fs.dev.Fence(ctx)
}

// loadFreeState deserialises the allocator pools; returns false if the
// area is invalid. The area is on-media input: every record is validated
// (inside the group's pool, FIFO entries hugepage-aligned, nothing
// overlapping) and a bad one sends Mount to the scan, like a bad magic —
// loading it would hand out blocks twice or outside the partition.
func (fs *FS) loadFreeState(ctx *sim.Ctx) bool {
	area := fs.g.unmountStart * BlockSize
	limit := fs.g.unmountBlocks * BlockSize
	raw := make([]byte, limit)
	if err := fs.dev.ReadAtChecked(raw, area); err != nil {
		// Poisoned unmount area: fall back to the scan (which also leaves
		// the stale freelist behind — it is rewritten on the next unmount).
		return false
	}
	pos := 0
	u64 := func() (uint64, bool) {
		if pos+8 > len(raw) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
		return v, true
	}
	magic, ok := u64()
	if !ok || magic != freeStateMagic {
		return false
	}
	cpus, ok := u64()
	if !ok || int(cpus) != fs.g.cpus {
		return false
	}
	var totalRead int64 = 16
	// Decoded into fresh groups: only a fully valid area replaces the
	// allocator's (still empty) free state.
	loaded := make([]*group, len(fs.alloc.groups))
	for c := range loaded {
		g := newGroup(c)
		loaded[c] = g
		lo, hi := fs.g.poolRange(c)
		// unclaimed is the pool range minus the records seen so far, so a
		// record overlapping an earlier one fails its TakeAt.
		unclaimed := alloc.NewPool()
		unclaimed.Add(lo, hi-lo)
		claim := func(s, l uint64) bool {
			start, length := int64(s), int64(l)
			return start >= lo && length > 0 && length <= hi-start && unclaimed.TakeAt(start, length)
		}
		na, ok := u64()
		if !ok {
			return false
		}
		for i := uint64(0); i < na; i++ {
			b, ok := u64()
			if !ok || b%BlocksPerHuge != 0 || !claim(b, BlocksPerHuge) {
				return false
			}
			g.aligned = append(g.aligned, int64(b))
		}
		nh, ok := u64()
		if !ok {
			return false
		}
		for i := uint64(0); i < nh; i++ {
			s, ok1 := u64()
			l, ok2 := u64()
			if !ok1 || !ok2 || !claim(s, l) {
				return false
			}
			// Insert, not Add: the index is restored hole for hole as saved.
			g.holes.Insert(int64(s), int64(l))
		}
		totalRead += int64(8 + na*8 + 8 + nh*16)
	}
	for c, g := range fs.alloc.groups {
		g.aligned, g.holes = loaded[c].aligned, loaded[c].holes
		g.publishLocked()
	}
	// Charge the freelist read. It comes on top of the inode and dirent
	// scan rebuildFromScan charges on every mount: reading the free lists
	// saves the host their rebuild, not the mount virtual time.
	fs.dev.Read(ctx, make([]byte, min(totalRead, 4096)), area)
	ctx.Advance(totalRead / 64 * int64(fs.model.ReadLat64) / 8)
	return true
}

// FilesCount reports the number of live inodes (tests / recovery
// experiment).
func (fs *FS) FilesCount() int {
	return fs.inodeCount()
}
