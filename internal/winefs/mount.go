package winefs

import (
	"cmp"
	"encoding/binary"
	"fmt"
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
	sbBuf := make([]byte, sbSize)
	// A poisoned superblock is not survivable: without the geometry nothing
	// else on the device can be located. Mount fails with EIO.
	if err := dev.ReadAtChecked(sbBuf, 0); err != nil {
		return nil, mapDevErr(err)
	}
	sb := decodeSuperblock(sbBuf)
	if sb.magic != Magic {
		return nil, fmt.Errorf("winefs: bad superblock magic %#x", sb.magic)
	}
	dev.Read(ctx, sbBuf, 0) // charge the superblock read

	fs := &FS{
		dev:    dev,
		as:     mmu.NewAddressSpace(dev),
		model:  dev.Model(),
		mode:   opts.Mode,
		g:      makeGeometry(sb.totalBlocks, int(sb.cpus), sb.inodesPerCPU),
		locks:  vfs.NewLockTable(),
		numaOn: opts.NUMAAware && dev.Nodes() > 1,
		homes:  make(map[int]int),
	}
	if err := fs.initTier(opts.Tier); err != nil {
		return nil, err
	}
	fs.shards = newShards(fs.g.cpus)
	fs.nextTxID = sb.nextTxID
	fs.alloc = newAllocator(fs)
	for c := 0; c < fs.g.cpus; c++ {
		j := &journal{fs: fs, cpu: c, base: fs.g.journalBase(c)}
		fs.journals = append(fs.journals, j)
		if err := j.load(); err != nil {
			fs.degrade("journal %d unreadable at mount: %v", c, err)
		}
	}

	rebuiltFree := false
	if !sb.clean {
		// Crash path: roll back in-flight transactions first, then rebuild
		// everything from the (now consistent) inode tables.
		fs.recoverJournals(ctx)
		fs.rebuildFromScan(ctx, true)
		rebuiltFree = true
	} else {
		// Clean path: the DRAM structures are deserialised from the
		// unmount area. (The host still walks the inode tables to build
		// its in-memory namespace, but the virtual-time cost charged is
		// the cheap freelist read — matching a real clean mount.)
		if !fs.loadFreeState(ctx) {
			fs.rebuildFromScan(ctx, true)
			rebuiltFree = true
		} else {
			fs.rebuildFromScan(ctx, false)
		}
	}
	// The slow-tier pool is DRAM-only: the free-rebuild path already
	// replayed slow extents through the routed markUsed; a clean mount
	// (PM freelist loaded, no free rebuild) replays them here.
	if fs.tier != nil && !rebuiltFree {
		fs.rebuildSlowPool()
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

// rebuildFromScan walks every per-CPU inode table, reconstructing the
// DRAM inode cache, the directory indexes, and (when rebuildFree is true)
// the allocator free lists and inode free lists. The per-CPU scans run in
// parallel in virtual time: the charged cost is the maximum over CPUs.
func (fs *FS) rebuildFromScan(ctx *sim.Ctx, rebuildFree bool) {
	if rebuildFree {
		fs.alloc.initEmpty()
	}
	fs.initInodeFree()

	start := ctx.Now()
	var maxCPUCost int64
	for c := 0; c < fs.g.cpus; c++ {
		var cpuCost int64
		base := fs.g.inodeTableBase(c)
		g := fs.alloc.groups[c]
		for s := int64(0); s < fs.g.inodesPerCPU; s++ {
			cpuCost += inodeScanCost
			hdr := make([]byte, inoOffExtents)
			if err := fs.dev.ReadAtChecked(hdr, base+s*InodeSize); err != nil {
				// The slot may hold a live inode we can no longer prove
				// anything about: degrade rather than guess.
				fs.degrade("inode table cpu %d slot %d unreadable: %v", c, s, err)
				continue
			}
			di := decodeInodeHeader(hdr)
			if di.magic != inodeMagic || di.typ == typeFree {
				continue
			}
			// Live inode: remove the slot from the free list.
			for i, fslot := range g.inodeFree {
				if fslot == s {
					g.inodeFree = append(g.inodeFree[:i], g.inodeFree[i+1:]...)
					break
				}
			}
			inoNum := fs.g.inoFor(c, s)
			ino := &inode{
				fs:    fs,
				ino:   inoNum,
				typ:   di.typ,
				flags: di.flags,
				size:  di.size,
				nlink: di.nlink,
			}
			if di.typ == typeDir {
				ino.dir = newDirIndex()
			}
			cpuCost += fs.loadExtents(ino, di)
			if rebuildFree {
				for _, e := range ino.extents {
					fs.alloc.markUsed(e.blk, e.length)
				}
				for _, blk := range ino.indirect {
					fs.alloc.markUsed(blk, 1)
				}
			}
			fs.putInode(ino)
		}
		if cpuCost > maxCPUCost {
			maxCPUCost = cpuCost
		}
	}
	// Parallel scan: total time = slowest CPU.
	ctx.AdvanceTo(start + maxCPUCost)

	// Second pass: rebuild directory indexes from dirent blocks.
	for _, ino := range fs.snapshotInodes() {
		if ino.typ != typeDir {
			continue
		}
		fs.loadDirIndex(ctx, ino)
	}
	if fs.getInode(1) == nil {
		// A formatted FS always has a root; restore a fresh one if the
		// image predates any successful create (defensive).
		root := &inode{fs: fs, ino: 1, typ: typeDir, nlink: 2, dir: newDirIndex()}
		fs.putInode(root)
		fs.removeFreeIno(0, 0)
	}
}

// loadExtents reads an inode's extent records (inline + indirect chain)
// into DRAM; returns the virtual-time cost of the reads. A poisoned record
// or a corrupt chain pointer stops the walk and degrades the mount: the
// records already loaded stay usable, the rest of the file reads as EIO-free
// holes but the file system goes read-only.
func (fs *FS) loadExtents(ino *inode, di dinode) int64 {
	var cost int64
	n := int(di.extCount)
	ino.extents = make([]wextent, 0, n)
	ino.slots = make([]int, 0, n)
	if di.indirect != 0 {
		ino.indirect = []int64{di.indirect}
	}
	buf := make([]byte, extentSize)
	for i := 0; i < n; i++ {
		var addr int64
		if i < InlineExtents {
			addr = fs.g.inodeAddr(ino.ino) + inoOffExtents + int64(i)*extentSize
		} else {
			idx := i - InlineExtents
			chain := idx / extPerIndirect
			for len(ino.indirect) <= chain {
				// Follow the chain pointer at the start of the last block.
				last := ino.indirect[len(ino.indirect)-1]
				if err := fs.dev.CheckRange(last*BlockSize, 8); err != nil {
					fs.degrade("ino %d: corrupt indirect chain: %v", ino.ino, err)
					sortExtents(ino)
					return cost
				}
				var pb [8]byte
				if err := fs.dev.ReadAtChecked(pb[:], last*BlockSize); err != nil {
					fs.degrade("ino %d: indirect block unreadable: %v", ino.ino, err)
					sortExtents(ino)
					return cost
				}
				next := int64(binary.LittleEndian.Uint64(pb[:]))
				if next == 0 {
					sortExtents(ino)
					return cost
				}
				ino.indirect = append(ino.indirect, next)
				cost += int64(fs.model.ReadLat64)
			}
			addr = ino.indirect[chain]*BlockSize + 8 + int64(idx%extPerIndirect)*extentSize
		}
		if err := fs.dev.CheckRange(addr, extentSize); err != nil {
			fs.degrade("ino %d: extent record %d out of range: %v", ino.ino, i, err)
			break
		}
		if err := fs.dev.ReadAtChecked(buf, addr); err != nil {
			fs.degrade("ino %d: extent record %d unreadable: %v", ino.ino, i, err)
			break
		}
		cost += int64(fs.model.ReadLat64) / 4
		e := decodeExtent(buf)
		// Validate the decoded record before trusting it: a torn or stale
		// record can point anywhere.
		if e.length <= 0 || e.blk < 0 || fs.dataCheckRange(e.blk*BlockSize, e.length*BlockSize) != nil {
			fs.degrade("ino %d: extent record %d corrupt (blk=%d len=%d)", ino.ino, i, e.blk, e.length)
			break
		}
		ino.extents = append(ino.extents, wextent{fileBlk: e.fileBlk, blk: e.blk, length: e.length})
		ino.slots = append(ino.slots, i)
	}
	sortExtents(ino)
	return cost
}

// sortExtents sorts a bulk-loaded extent list by file offset, keeping the
// slot mapping attached. Only the mount path needs it: a live list is kept
// sorted by insertion (recAppend).
func sortExtents(ino *inode) {
	type pair struct {
		e wextent
		s int
	}
	ps := make([]pair, len(ino.extents))
	for i := range ino.extents {
		ps[i] = pair{ino.extents[i], ino.slots[i]}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.e.fileBlk, b.e.fileBlk) })
	for i := range ps {
		ino.extents[i] = ps[i].e
		ino.slots[i] = ps[i].s
	}
}

// loadDirIndex rebuilds a directory's DRAM red-black tree from its dirent
// blocks.
func (fs *FS) loadDirIndex(ctx *sim.Ctx, dir *inode) {
	buf := make([]byte, BlockSize)
	for _, e := range dir.extents {
		for b := e.blk; b < e.blk+e.length; b++ {
			if err := fs.dev.ReadAtChecked(buf, b*BlockSize); err != nil {
				// The entries in this block are unknowable: the namespace may
				// be missing files, so the mount is read-only from here on.
				fs.degrade("dir %d: dirent block %d unreadable: %v", dir.ino, b, err)
				ctx.Advance(int64(fs.model.ReadLat64))
				continue
			}
			ctx.Advance(int64(fs.model.ReadLat64))
			for off := int64(0); off < BlockSize; off += DirentSize {
				addr := b*BlockSize + off
				ino, name, valid := decodeDirent(buf[off : off+DirentSize])
				if !valid || ino == 0 {
					dir.dir.freeSlots = append(dir.dir.freeSlots, addr)
					continue
				}
				if fs.getInode(ino) == nil {
					// Dangling entry (target rolled back): treat as free.
					dir.dir.freeSlots = append(dir.dir.freeSlots, addr)
					continue
				}
				dir.dir.tree.Set(name, dentry{ino: ino, addr: addr})
			}
		}
	}
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
	// Charge the freelist read (this is what makes clean mounts fast).
	fs.dev.Read(ctx, make([]byte, min64(totalRead, 4096)), area)
	ctx.Advance(totalRead / 64 * int64(fs.model.ReadLat64) / 8)
	return true
}

// FilesCount reports the number of live inodes (tests / recovery
// experiment).
func (fs *FS) FilesCount() int {
	return fs.inodeCount()
}
