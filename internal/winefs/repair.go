package winefs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/pmem"
)

// Repair is the offline repairing fsck (the last rung of the degradation
// ladder): it takes a WineFS image that a normal mount would refuse or
// degrade on — poisoned journal tails, unreadable inode slots, corrupt
// extent records, dangling dirents — and rewrites it into a mountable,
// structurally consistent image. The policy is conservative:
//
//   - readable uncommitted journal transactions are rolled back exactly as
//     mount recovery would; unreadable journals are cleared (their in-flight
//     transaction is lost, which the later structural passes then mend);
//   - every journal region is zeroed and re-formatted — zeroing is a
//     full-line store, so it also clears poison;
//   - unreadable inode slots are zeroed (the inode is lost; its storage is
//     reclaimed by the allocator scan at the next mount);
//   - an inode's extent list is truncated at the first unreadable or
//     out-of-range record (the tail of the file is lost, the head survives);
//   - unreadable dirent blocks are zeroed; dirents referencing dead inodes
//     are invalidated;
//   - live inodes no longer reachable from the root are quarantined into
//     /lost+found (created on demand) instead of being destroyed;
//   - link counts are recomputed;
//   - the serialised unmount freelist is invalidated so the next mount
//     rebuilds the allocator by scanning the (now consistent) inode tables;
//   - poison over *data* blocks is left alone: user data is never silently
//     zeroed — reads of those lines keep returning EIO until overwritten.
//
// Repair never panics on a corrupt image; it returns an error only when the
// superblock itself is unreadable or invalid (nothing on the device can be
// located without it).

// RepairReport summarises what Repair changed. Field names are stable JSON
// for `fsck -repair -json`.
type RepairReport struct {
	JournalsRolledBack int      `json:"journals_rolled_back"`
	JournalsCleared    []int    `json:"journals_cleared,omitempty"`
	InodesZeroed       []uint64 `json:"inodes_zeroed,omitempty"`
	ExtentsTruncated   []uint64 `json:"extents_truncated,omitempty"`
	DirentBlocksZeroed int      `json:"dirent_blocks_zeroed"`
	DirentsDropped     int      `json:"dirents_dropped"`
	Orphans            []uint64 `json:"orphans_quarantined,omitempty"`
	NlinksFixed        int      `json:"nlinks_fixed"`
	DataPoisonLines    int      `json:"data_poison_lines_left"`
	Notes              []string `json:"notes,omitempty"`
	PostErrors         []string `json:"post_errors,omitempty"`
	Clean              bool     `json:"clean"`
}

func (r *RepairReport) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// rnode is Repair's view of one live inode.
type rnode struct {
	ino      uint64
	typ      uint8
	flags    uint32
	size     int64
	nlink    uint32
	extents  []wextent
	extCount int   // surviving record count (== len(extents) slots on PM)
	indirect int64 // first indirect block, 0 = none
}

// Repair fixes dev in place and reports what it did. See the package-level
// policy comment above.
func Repair(dev *pmem.Device) (*RepairReport, error) {
	return RepairTiered(dev, 0)
}

// RepairTiered is Repair for a tiered image: file extents may also point
// into the slow region [slowBase, slowBase+slowBlocks) — the same block
// numbering CheckTiered accepts — and such records are kept rather than
// truncated as out-of-range. The slow device itself is not touched (its
// writes are durable and unpoisonable in this model); only the PM-side
// metadata referencing it is mended. slowBlocks = 0 repairs a pure-PM
// image.
func RepairTiered(dev *pmem.Device, slowBlocks int64) (*RepairReport, error) {
	rep := &RepairReport{}
	sbBuf := make([]byte, sbSize)
	if err := dev.ReadAtChecked(sbBuf, 0); err != nil {
		return nil, fmt.Errorf("winefs: superblock unreadable, cannot repair: %w", err)
	}
	sb := decodeSuperblock(sbBuf)
	if sb.magic != Magic {
		return nil, fmt.Errorf("winefs: bad superblock magic %#x, cannot repair", sb.magic)
	}
	if sb.totalBlocks*BlockSize > dev.Size() || sb.cpus <= 0 {
		return nil, fmt.Errorf("winefs: superblock geometry invalid (blocks=%d cpus=%d)", sb.totalBlocks, sb.cpus)
	}
	g := makeGeometry(sb.totalBlocks, int(sb.cpus), sb.inodesPerCPU)
	slowBase := (g.totalBlocks + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	inSlow := func(blk, length int64) bool {
		return slowBlocks > 0 && blk >= slowBase && blk+length <= slowBase+slowBlocks
	}

	// Skeleton FS: just enough for the journal scan helpers. Never mounted,
	// never charged virtual time.
	skel := &FS{dev: dev, g: g, model: dev.Model()}
	skel.nextTxID = sb.nextTxID

	maxTxID := sb.nextTxID

	// Pass 1: journals. Roll back what is readable, clear what is not, and
	// re-format every journal region (zeroing clears poison).
	for c := 0; c < g.cpus; c++ {
		j := &journal{fs: skel, cpu: c, base: g.journalBase(c)}
		tx, seen, err := j.scanJournal()
		if seen > maxTxID {
			maxTxID = seen
		}
		switch {
		case err != nil:
			rep.JournalsCleared = append(rep.JournalsCleared, c)
			rep.notef("journal %d unreadable (%v): in-flight transaction discarded", c, err)
		case tx != nil:
			for i := len(tx.undo) - 1; i >= 0; i-- {
				e := tx.undo[i]
				dev.WriteAt(e.data[:e.n], e.addr)
			}
			if tx.txid > maxTxID {
				maxTxID = tx.txid
			}
			rep.JournalsRolledBack++
		}
		dev.ZeroRange(j.base, JournalBlocks*BlockSize)
		hdr := make([]byte, EntrySize)
		le := binary.LittleEndian
		le.PutUint32(hdr[0:], entryMagic)
		le.PutUint32(hdr[4:], 1) // wrap
		le.PutUint64(hdr[8:], 1) // tail
		le.PutUint64(hdr[16:], maxTxID)
		dev.WriteAt(hdr, j.base)
	}

	// Pass 2: inode tables. Zero unreadable slots, truncate extent lists at
	// the first bad record, and collect the survivors.
	inodes := map[uint64]*rnode{}
	blockOwner := map[int64]bool{}
	for c := 0; c < g.cpus; c++ {
		base := g.inodeTableBase(c)
		for s := int64(0); s < g.inodesPerCPU; s++ {
			slotAddr := base + s*InodeSize
			hdr := make([]byte, inoOffExtents)
			if err := dev.ReadAtChecked(hdr, slotAddr); err != nil {
				dev.ZeroRange(slotAddr, InodeSize)
				rep.InodesZeroed = append(rep.InodesZeroed, g.inoFor(c, s))
				continue
			}
			di := decodeInodeHeader(hdr)
			if di.magic != inodeMagic || di.typ == typeFree {
				continue
			}
			if di.typ != typeFile && di.typ != typeDir {
				dev.ZeroRange(slotAddr, InodeSize)
				rep.InodesZeroed = append(rep.InodesZeroed, g.inoFor(c, s))
				continue
			}
			ino := g.inoFor(c, s)
			node := &rnode{ino: ino, typ: di.typ, flags: di.flags, size: di.size, nlink: di.nlink, indirect: di.indirect}
			truncated := false
			indirect := []int64{}
			if di.indirect != 0 {
				if dev.CheckRange(di.indirect*BlockSize, BlockSize) != nil {
					truncated = true
					node.indirect = 0
				} else {
					indirect = append(indirect, di.indirect)
				}
			}
			buf := make([]byte, extentSize)
			n := int(di.extCount)
			for i := 0; i < n && !truncated; i++ {
				var addr int64
				if i < InlineExtents {
					addr = g.inodeAddr(ino) + inoOffExtents + int64(i)*extentSize
				} else {
					idx := i - InlineExtents
					chain := idx / extPerIndirect
					for len(indirect) <= chain && !truncated {
						last := indirect[len(indirect)-1]
						var pb [8]byte
						if err := dev.ReadAtChecked(pb[:], last*BlockSize); err != nil {
							truncated = true
							break
						}
						next := int64(binary.LittleEndian.Uint64(pb[:]))
						if next == 0 || dev.CheckRange(next*BlockSize, BlockSize) != nil {
							truncated = true
							break
						}
						indirect = append(indirect, next)
					}
					if truncated {
						break
					}
					addr = indirect[chain]*BlockSize + 8 + int64(idx%extPerIndirect)*extentSize
				}
				if err := dev.ReadAtChecked(buf, addr); err != nil {
					truncated = true
					break
				}
				e := decodeExtent(buf)
				pmOK := e.blk >= g.dataStart && e.blk+e.length <= g.totalBlocks
				// Slow-tier extents are legal for files only; directory and
				// indirect blocks are PM by construction, so a dir record
				// pointing past the device is corruption like any other.
				slowOK := di.typ == typeFile && inSlow(e.blk, e.length)
				if e.length <= 0 || (!pmOK && !slowOK) {
					truncated = true
					break
				}
				node.extents = append(node.extents, e)
				node.extCount++
			}
			if truncated {
				rep.ExtentsTruncated = append(rep.ExtentsTruncated, ino)
				// Clamp the size to the mapped range that survived.
				var maxByte int64
				for _, e := range node.extents {
					if end := (e.fileBlk + e.length) * BlockSize; end > maxByte {
						maxByte = end
					}
				}
				if node.size > maxByte {
					node.size = maxByte
				}
			}
			for _, e := range node.extents {
				for b := e.blk; b < e.blk+e.length; b++ {
					blockOwner[b] = true
				}
			}
			for _, ib := range indirect {
				blockOwner[ib] = true
			}
			inodes[ino] = node
		}
	}

	// Re-establish the root if it was lost.
	if inodes[1] == nil || inodes[1].typ != typeDir {
		inodes[1] = &rnode{ino: 1, typ: typeDir, nlink: 2}
		rep.notef("root inode recreated")
	}

	// Pass 3: directory entries. Zero unreadable blocks, drop entries that
	// point at dead inodes, and record the survivors as graph edges.
	children := map[uint64][]uint64{} // dir ino -> child inos
	for _, node := range inodes {
		if node.typ != typeDir {
			continue
		}
		buf := make([]byte, BlockSize)
		for _, e := range node.extents {
			for b := e.blk; b < e.blk+e.length; b++ {
				if err := dev.ReadAtChecked(buf, b*BlockSize); err != nil {
					dev.ZeroRange(b*BlockSize, BlockSize)
					rep.DirentBlocksZeroed++
					continue
				}
				for off := int64(0); off < BlockSize; off += DirentSize {
					child, _, valid := decodeDirent(buf[off : off+DirentSize])
					if !valid || child == 0 {
						continue
					}
					if inodes[child] == nil || child == node.ino {
						dev.WriteAt([]byte{0}, b*BlockSize+off+8)
						rep.DirentsDropped++
						continue
					}
					children[node.ino] = append(children[node.ino], child)
				}
			}
		}
	}

	// Pass 4: reachability from the root; quarantine orphans in /lost+found.
	reachable := map[uint64]bool{1: true}
	queue := []uint64{1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range children[cur] {
			if !reachable[ch] {
				reachable[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	// Only quarantine orphan *roots*: an orphan that is a child of another
	// orphan directory becomes reachable through its parent's lost+found
	// link and must not be linked twice.
	orphanChild := map[uint64]bool{}
	for ino, node := range inodes {
		if reachable[ino] || node.typ != typeDir {
			continue
		}
		for _, ch := range children[ino] {
			orphanChild[ch] = true
		}
	}
	var orphans []uint64
	for ino := range inodes {
		if !reachable[ino] && !orphanChild[ino] {
			orphans = append(orphans, ino)
		}
	}
	sort.Slice(orphans, func(i, k int) bool { return orphans[i] < orphans[k] })
	if len(orphans) > 0 {
		lf, err := quarantine(dev, g, inodes, children, blockOwner, orphans)
		if err != nil {
			rep.notef("quarantine incomplete: %v", err)
		} else {
			rep.Orphans = orphans
			rep.notef("%d orphans linked under /lost+found (ino %d)", len(orphans), lf)
		}
	}

	// Pass 5: recompute link counts. A file's nlink is its reference count;
	// a directory's is 2 plus its child directories.
	refcount := map[uint64]int{}
	for _, chs := range children {
		for _, ch := range chs {
			refcount[ch]++
		}
	}
	for ino, node := range inodes {
		want := uint32(refcount[ino])
		if node.typ == typeDir {
			want = 2
			for _, ch := range children[ino] {
				if inodes[ch] != nil && inodes[ch].typ == typeDir {
					want++
				}
			}
		}
		if node.nlink != want {
			node.nlink = want
			rep.NlinksFixed++
		}
		writeRnodeHeader(dev, g, node)
	}

	// Pass 6: invalidate the serialised freelist so the next mount rebuilds
	// the allocator from the inode tables we just made consistent.
	dev.ZeroRange(g.unmountStart*BlockSize, g.unmountBlocks*BlockSize)

	// Pass 7: superblock — dirty, so the next mount runs the scan path, with
	// the TxID high-water mark preserved.
	sb.clean = false
	sb.nextTxID = maxTxID
	dev.WriteAt(sb.encode(), 0)

	// Residual poison over the data area is deliberate: those bytes are user
	// data we cannot reconstruct, and EIO is the honest answer until the
	// application overwrites them.
	for _, line := range dev.PoisonedLines(0, dev.Size()) {
		if line >= g.dataStart*BlockSize {
			rep.DataPoisonLines++
		}
	}

	post := CheckTiered(dev, slowBlocks)
	rep.PostErrors = post.Errors
	rep.Clean = post.OK()
	return rep, nil
}

// writeRnodeHeader persists a repaired inode header (and nothing else: the
// surviving extent records are already on PM).
func writeRnodeHeader(dev *pmem.Device, g geometry, node *rnode) {
	di := dinode{
		magic:    inodeMagic,
		typ:      node.typ,
		flags:    node.flags,
		size:     node.size,
		nlink:    node.nlink,
		extCount: uint32(node.extCount),
		indirect: node.indirect,
	}
	dev.WriteAt(di.encodeHeader(make([]byte, inoOffExtents)), g.inodeAddr(node.ino))
}

// quarantine links every orphan under /lost+found, creating the directory
// (and growing the root) from free resources when needed. Returns the
// /lost+found inode number.
func quarantine(dev *pmem.Device, g geometry, inodes map[uint64]*rnode, children map[uint64][]uint64, blockOwner map[int64]bool, orphans []uint64) (uint64, error) {
	// Find (or create) /lost+found directly under the root.
	root := inodes[1]
	var lf *rnode
	// An existing reachable child named lost+found cannot be identified here
	// (names were not kept); always create a fresh one — repair runs are
	// rare and each gets its own quarantine directory only if orphans exist.
	slot, err := freeInodeSlot(dev, g)
	if err != nil {
		return 0, err
	}
	lf = &rnode{ino: slot, typ: typeDir, nlink: 2}
	inodes[slot] = lf

	// Helper: allocate a free data block (not owned by any surviving inode).
	nextBlk := g.dataStart
	allocBlk := func() (int64, error) {
		for ; nextBlk < g.totalBlocks; nextBlk++ {
			if !blockOwner[nextBlk] {
				blockOwner[nextBlk] = true
				b := nextBlk
				nextBlk++
				dev.ZeroRange(b*BlockSize, BlockSize)
				return b, nil
			}
		}
		return 0, fmt.Errorf("no free block for quarantine")
	}

	// Helper: append a dirent to a directory node, reusing the first free
	// slot in its existing blocks or growing it by one block. Extent records
	// go inline (repair needs a handful of blocks, well within
	// InlineExtents).
	appendDirent := func(dir *rnode, ino uint64, name string) error {
		buf := make([]byte, DirentSize)
		for _, e := range dir.extents {
			for b := e.blk; b < e.blk+e.length; b++ {
				for off := int64(0); off < BlockSize; off += DirentSize {
					addr := b*BlockSize + off
					if err := dev.ReadAtChecked(buf, addr); err != nil {
						continue
					}
					cino, _, valid := decodeDirent(buf)
					if valid && cino != 0 {
						continue
					}
					var db [DirentSize]byte
					encodeDirent(db[:], ino, name)
					dev.WriteAt(db[:], addr)
					children[dir.ino] = append(children[dir.ino], ino)
					return nil
				}
			}
		}
		if dir.extCount >= InlineExtents {
			return fmt.Errorf("quarantine dir full")
		}
		b, err := allocBlk()
		if err != nil {
			return err
		}
		var fileBlk int64
		if n := len(dir.extents); n > 0 {
			last := dir.extents[n-1]
			fileBlk = last.fileBlk + last.length
		}
		e := wextent{fileBlk: fileBlk, blk: b, length: 1}
		dir.extents = append(dir.extents, e)
		var eb [extentSize]byte
		encodeExtent(eb[:], e)
		dev.WriteAt(eb[:], g.inodeAddr(dir.ino)+inoOffExtents+int64(dir.extCount)*extentSize)
		dir.extCount++
		if end := (fileBlk + 1) * BlockSize; end > dir.size {
			dir.size = end
		}
		var db [DirentSize]byte
		encodeDirent(db[:], ino, name)
		dev.WriteAt(db[:], b*BlockSize)
		children[dir.ino] = append(children[dir.ino], ino)
		return nil
	}

	// Quarantine into a fresh directory: ignore the root's existing layout
	// and append the lost+found entry through the same growth helper.
	if err := appendDirent(root, lf.ino, "lost+found"); err != nil {
		return 0, err
	}
	for _, o := range orphans {
		if err := appendDirent(lf, o, fmt.Sprintf("lost+%d", o)); err != nil {
			return lf.ino, err
		}
	}
	return lf.ino, nil
}

// freeInodeSlot finds a free inode slot (scanning every per-CPU table) for
// repair-time directory creation.
func freeInodeSlot(dev *pmem.Device, g geometry) (uint64, error) {
	hdr := make([]byte, inoOffExtents)
	for c := 0; c < g.cpus; c++ {
		base := g.inodeTableBase(c)
		for s := int64(0); s < g.inodesPerCPU; s++ {
			if err := dev.ReadAtChecked(hdr, base+s*InodeSize); err != nil {
				continue
			}
			di := decodeInodeHeader(hdr)
			if di.magic != inodeMagic || di.typ == typeFree {
				if g.inoFor(c, s) == 1 {
					continue // never hand out the root slot
				}
				dev.ZeroRange(base+s*InodeSize, InodeSize)
				return g.inoFor(c, s), nil
			}
		}
	}
	return 0, fmt.Errorf("no free inode slot for quarantine")
}

// JournalRegion returns the byte range [lo, hi) of CPU c's journal on a
// formatted device. Fault-injection harnesses use it to aim poison and torn
// writes at journal metadata. It returns (0, 0) when the superblock is
// unreadable or the CPU index is out of range.
func JournalRegion(dev *pmem.Device, c int) (lo, hi int64) {
	sbBuf := make([]byte, sbSize)
	if err := dev.ReadAtChecked(sbBuf, 0); err != nil {
		return 0, 0
	}
	sb := decodeSuperblock(sbBuf)
	if sb.magic != Magic || c < 0 || c >= int(sb.cpus) {
		return 0, 0
	}
	g := makeGeometry(sb.totalBlocks, int(sb.cpus), sb.inodesPerCPU)
	lo = g.journalBase(c)
	return lo, lo + JournalBlocks*BlockSize
}
