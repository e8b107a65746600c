package winefs

import (
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
//
// It is the mending policy over the image walker (image.go): what the
// walker calls a fault is what gets zeroed or truncated here, so the image
// Repair leaves is one Check passes and Mount takes undegraded.
func RepairTiered(dev *pmem.Device, slowBlocks int64) (*RepairReport, error) {
	rep := &RepairReport{}
	im, err := openImage(dev, slowBlocks)
	if err != nil {
		return nil, fmt.Errorf("cannot repair: %w", err)
	}
	g, sb := im.g, im.sb

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
		dev.WriteAt(encodeJournalHeader(make([]byte, EntrySize), 1, 1, maxTxID), j.base)
	}

	// Pass 2: inode tables. Zero the slots that hold no usable inode, end
	// every extent list where the walker ended it — or at the first block
	// an earlier inode already owns: the first claimant of a cross-linked
	// block keeps it — and collect the survivors.
	inodes := map[uint64]*imageInode{}
	owned := map[int64]bool{}
	im.walkInodes(func(n *imageInode) {
		if n.lost() {
			dev.ZeroRange(g.inodeAddr(n.ino), InodeSize)
			rep.InodesZeroed = append(rep.InodesZeroed, n.ino)
			return
		}
		keep, cut := len(n.extents), n.fault != nil
		for k, b := range n.chain {
			if owned[b] {
				keep, n.chain, cut = min(keep, chainRecords(k)), n.chain[:k], true
				break
			}
			owned[b] = true
		}
	claim:
		for i, e := range n.extents[:keep] {
			for b := e.blk; b < e.blk+e.length; b++ {
				if owned[b] {
					keep, cut = i, true
					break claim
				}
			}
			for b := e.blk; b < e.blk+e.length; b++ {
				owned[b] = true
			}
		}
		if cut {
			n.extents = n.extents[:keep]
			rep.ExtentsTruncated = append(rep.ExtentsTruncated, n.ino)
			// Clamp the size to the mapped range that survived.
			var maxByte int64
			for _, e := range n.extents {
				maxByte = max(maxByte, (e.fileBlk+e.length)*BlockSize)
			}
			n.di.size = min(n.di.size, maxByte)
		}
		inodes[n.ino] = n
	})

	// Re-establish the root if it was lost.
	if inodes[1] == nil || inodes[1].di.typ != typeDir {
		inodes[1] = &imageInode{ino: 1, di: dinode{typ: typeDir, nlink: 2}}
		rep.notef("root inode recreated")
	}

	// Pass 3: directory entries. Zero unreadable blocks, drop entries that
	// point at dead inodes, and record the survivors as graph edges.
	children := map[uint64][]uint64{} // dir ino -> child inos
	for _, dir := range inodes {
		if dir.di.typ != typeDir {
			continue
		}
		im.walkDirents(dir.extents, func(blk int64, ents []imageDirent, fault *imageFault) {
			if fault != nil {
				dev.ZeroRange(blk*BlockSize, BlockSize)
				rep.DirentBlocksZeroed++
				return
			}
			for _, de := range ents {
				if !de.live {
					continue
				}
				if inodes[de.ino] == nil || de.ino == dir.ino {
					dev.WriteAt([]byte{0}, de.addr+8)
					rep.DirentsDropped++
					continue
				}
				children[dir.ino] = append(children[dir.ino], de.ino)
			}
		})
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
	for ino, n := range inodes {
		if reachable[ino] || n.di.typ != typeDir {
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
		lf, err := quarantine(im, inodes, children, owned, orphans)
		if err != nil {
			rep.notef("quarantine incomplete: %v", err)
		} else {
			rep.Orphans = orphans
			rep.notef("%d orphans linked under /lost+found (ino %d)", len(orphans), lf)
		}
	}

	// Pass 5: recompute link counts and rewrite every surviving header (and
	// nothing else: the surviving extent records are already on PM). A
	// file's nlink is its reference count; a directory's is 2 plus its
	// child directories.
	refcount := map[uint64]int{}
	for _, chs := range children {
		for _, ch := range chs {
			refcount[ch]++
		}
	}
	for ino, n := range inodes {
		want := uint32(refcount[ino])
		if n.di.typ == typeDir {
			want = 2
			for _, ch := range children[ino] {
				if inodes[ch] != nil && inodes[ch].di.typ == typeDir {
					want++
				}
			}
		}
		if n.di.nlink != want {
			n.di.nlink = want
			rep.NlinksFixed++
		}
		n.di.magic, n.di.extCount, n.di.indirect = inodeMagic, uint32(len(n.extents)), 0
		if len(n.chain) > 0 {
			n.di.indirect = n.chain[0]
		}
		dev.WriteAt(n.di.encodeHeader(make([]byte, inoOffExtents)), g.inodeAddr(ino))
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

// quarantine links every orphan under /lost+found, creating the directory
// (and growing the root) from free resources when needed. Returns the
// /lost+found inode number.
func quarantine(im *image, inodes map[uint64]*imageInode, children map[uint64][]uint64, owned map[int64]bool, orphans []uint64) (uint64, error) {
	dev, g := im.dev, im.g
	// An existing reachable child named lost+found is not looked for: repair
	// runs are rare and each gets its own quarantine directory, in the first
	// slot no surviving inode holds (never the root's) — every such slot is
	// free, or was zeroed by pass 2.
	lf := &imageInode{ino: 2, di: dinode{typ: typeDir, nlink: 2}}
	for inodes[lf.ino] != nil {
		lf.ino++
	}
	if !im.inTable(lf.ino) {
		return 0, fmt.Errorf("no free inode slot for quarantine")
	}
	dev.ZeroRange(g.inodeAddr(lf.ino), InodeSize)
	inodes[lf.ino] = lf

	// Helper: allocate a free data block (not owned by any surviving inode).
	nextBlk := g.dataStart
	allocBlk := func() (int64, error) {
		for ; nextBlk < im.dataEnd; nextBlk++ {
			if !owned[nextBlk] {
				owned[nextBlk] = true
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
	appendDirent := func(dir *imageInode, ino uint64, name string) error {
		addr := int64(-1)
		im.walkDirents(dir.extents, func(blk int64, ents []imageDirent, fault *imageFault) {
			for _, de := range ents {
				if addr < 0 && !de.live {
					addr = de.addr
				}
			}
		})
		if addr < 0 {
			if len(dir.extents) >= InlineExtents {
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
			var eb [extentSize]byte
			encodeExtent(eb[:], e)
			dev.WriteAt(eb[:], g.inlineExtentAddr(dir.ino, len(dir.extents)))
			dir.extents = append(dir.extents, e)
			dir.di.size = max(dir.di.size, (fileBlk+1)*BlockSize)
			addr = b * BlockSize
		}
		var db [DirentSize]byte
		encodeDirent(db[:], ino, name)
		dev.WriteAt(db[:], addr)
		children[dir.ino] = append(children[dir.ino], ino)
		return nil
	}

	// Quarantine into a fresh directory: ignore the root's existing layout
	// and append the lost+found entry through the same growth helper.
	if err := appendDirent(inodes[1], lf.ino, "lost+found"); err != nil {
		return 0, err
	}
	for _, o := range orphans {
		if err := appendDirent(lf, o, fmt.Sprintf("lost+%d", o)); err != nil {
			return lf.ino, err
		}
	}
	return lf.ino, nil
}

// JournalRegion returns the byte range [lo, hi) of CPU c's journal on a
// formatted device. Fault-injection harnesses use it to aim poison and torn
// writes at journal metadata. It returns (0, 0) when the superblock is
// unreadable or invalid, or the CPU index is out of range.
func JournalRegion(dev *pmem.Device, c int) (lo, hi int64) {
	im, err := openImage(dev, 0)
	if err != nil || c < 0 || c >= im.g.cpus {
		return 0, 0
	}
	lo = im.g.journalBase(c)
	return lo, lo + JournalBlocks*BlockSize
}
