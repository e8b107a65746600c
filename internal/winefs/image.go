package winefs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pmem"
)

// This file is the one reader of the on-media image. Mount, Check and
// Repair are three policies over it (DESIGN.md "One reader, three
// policies"): none of them decodes a superblock, walks an inode table,
// follows an extent chain or scans a dirent block itself, so they cannot
// disagree about what a valid image is. The reads are checked loads and
// cost no virtual time; what a scan costs is the mount's business
// (rebuildFromScan prices what the walker reports).
//
// The validation rule, stated once. A superblock is valid when its magic
// is right and its geometry fits the device with room for one data pool
// per CPU. An inode slot is free unless it carries the inode magic and a
// non-free type; a live slot must be readable and a file or a directory.
// Its extent list is records 0..extCount-1, the first InlineExtents in the
// slot and the rest in a chain of indirect blocks, and it ends at the first
// fault: a chain pointer that is zero, outside the PM data area or
// unreadable; a record that is unreadable, has length 0, or names blocks
// outside the PM data area — or, for a regular file on a tiered image,
// outside the slow region too (directories and indirect blocks are PM by
// construction). A directory's entries are the 64-byte slots of the blocks
// its list names; a block that cannot be read is a fault of its own.

// image is a formatted device whose superblock has passed validation.
type image struct {
	dev *pmem.Device
	sb  superblock
	g   geometry
	// dataEnd bounds the PM data area [g.dataStart, dataEnd): the end of
	// the last CPU's pool. The blocks between it and totalBlocks belong to
	// no pool and no valid record names them.
	dataEnd int64
	// The slow region [slowBase, slowBase+slowBlocks) of the global block
	// space; slowBlocks is 0 on a pure-PM image.
	slowBase, slowBlocks int64
}

// openImage reads and validates the superblock. slowBlocks is the size of
// the slow tier the image was formatted with (0 for none); the region
// starts at totalBlocks rounded up to a hugepage boundary, where initTier
// puts it. Nothing else on the device can be located without the
// superblock, so every caller gives up on an error; a media error is
// wrapped (errors.As finds it).
func openImage(dev *pmem.Device, slowBlocks int64) (*image, error) {
	buf := make([]byte, sbSize)
	if err := dev.ReadAtChecked(buf, 0); err != nil {
		return nil, fmt.Errorf("winefs: superblock unreadable: %w", err)
	}
	sb := decodeSuperblock(buf)
	if sb.magic != Magic {
		return nil, fmt.Errorf("winefs: bad superblock magic %#x", sb.magic)
	}
	bad := sb.cpus <= 0 || sb.inodesPerCPU <= 0 || sb.totalBlocks <= 0 || sb.totalBlocks > dev.Size()/BlockSize
	var g geometry
	if !bad {
		g = makeGeometry(sb.totalBlocks, int(sb.cpus), sb.inodesPerCPU)
		bad = g.poolBlocks <= 0
	}
	if bad {
		return nil, fmt.Errorf("winefs: superblock geometry invalid: blocks=%d cpus=%d inodes/cpu=%d on a %d-block device",
			sb.totalBlocks, sb.cpus, sb.inodesPerCPU, dev.Size()/BlockSize)
	}
	return &image{
		dev:        dev,
		sb:         sb,
		g:          g,
		dataEnd:    g.dataStart + g.poolBlocks*int64(g.cpus),
		slowBase:   (g.totalBlocks + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge,
		slowBlocks: slowBlocks,
	}, nil
}

func (im *image) inPM(blk, length int64) bool {
	return blk >= im.g.dataStart && length <= im.dataEnd-blk
}

func (im *image) inSlow(blk, length int64) bool {
	return blk >= im.slowBase && length <= im.slowBase+im.slowBlocks-blk
}

// inTable reports whether ino names a slot of the inode tables. A dirent
// is on-media input: its number is looked up only after this.
func (im *image) inTable(ino uint64) bool {
	return ino >= 1 && ino <= uint64(im.g.inodesPerCPU)*uint64(im.g.cpus)
}

// faultKind is the typed reason a walk stopped.
type faultKind uint8

const (
	faultSlotUnreadable faultKind = iota + 1
	faultInodeType
	faultChainZero
	faultChainRange
	faultChainUnreadable
	faultRecordUnreadable
	faultRecordLength
	faultRecordRange
	faultDirentBlock
)

var faultText = [...]string{
	faultSlotUnreadable:   "inode slot unreadable",
	faultInodeType:        "invalid inode type",
	faultChainZero:        "indirect chain ends before the record",
	faultChainRange:       "indirect pointer outside the PM data area",
	faultChainUnreadable:  "indirect block unreadable",
	faultRecordUnreadable: "extent record unreadable",
	faultRecordLength:     "extent record has no length",
	faultRecordRange:      "extent record names blocks outside the data area",
	faultDirentBlock:      "dirent block unreadable",
}

// imageFault is one violation of the validation rule. rec is the record the
// extent list ended at (the type byte for faultInodeType), blk and length
// the offending pointer or block range, err the media error if there was
// one.
type imageFault struct {
	kind        faultKind
	rec         int
	blk, length int64
	err         error
}

func (f *imageFault) String() string {
	s := faultText[f.kind]
	switch f.kind {
	case faultSlotUnreadable:
	case faultInodeType:
		s = fmt.Sprintf("%s %d", s, f.rec)
	case faultDirentBlock:
		s = fmt.Sprintf("%s (block %d)", s, f.blk)
	default:
		s = fmt.Sprintf("%s (record %d, blocks [%d,+%d))", s, f.rec, f.blk, f.length)
	}
	if f.err != nil {
		s = fmt.Sprintf("%s: %v", s, f.err)
	}
	return s
}

// imageInode is one non-free inode slot as the walker read it. When fault
// is a slot or type fault there is no inode to speak of. Otherwise extents
// holds the valid records in record order (extents[i] is record i) and
// chain the indirect blocks they sit in, each validated; a fault says why
// the list is shorter than di.extCount. Reaching them took len(chain)-1
// chain hops past the header's pointer and len(extents) record reads.
type imageInode struct {
	ino     uint64
	cpu     int
	di      dinode
	extents []wextent
	chain   []int64
	fault   *imageFault
}

// lost reports that the slot holds no usable inode.
func (n *imageInode) lost() bool {
	return n.fault != nil && (n.fault.kind == faultSlotUnreadable || n.fault.kind == faultInodeType)
}

// walkInodes visits every non-free slot of every per-CPU inode table, in
// inode-number order. visit may keep n.
func (im *image) walkInodes(visit func(n *imageInode)) {
	hdr := make([]byte, inoOffExtents)
	for c := 0; c < im.g.cpus; c++ {
		base := im.g.inodeTableBase(c)
		for s := int64(0); s < im.g.inodesPerCPU; s++ {
			n := imageInode{ino: im.g.inoFor(c, s), cpu: c}
			if err := im.dev.ReadAtChecked(hdr, base+s*InodeSize); err != nil {
				n.fault = &imageFault{kind: faultSlotUnreadable, err: err}
			} else if n.di = decodeInodeHeader(hdr); n.di.magic != inodeMagic || n.di.typ == typeFree {
				continue
			} else if n.di.typ != typeFile && n.di.typ != typeDir {
				n.fault = &imageFault{kind: faultInodeType, rec: int(n.di.typ)}
			} else {
				im.readExtents(&n)
			}
			visit(&n)
		}
	}
}

// chainRecords is how many records an inode with `blocks` indirect blocks
// can hold.
func chainRecords(blocks int) int { return InlineExtents + blocks*extPerIndirect }

// readExtents fills n.extents, n.chain and n.fault from the slot's records.
func (im *image) readExtents(n *imageInode) {
	// link validates a chain pointer and appends it.
	link := func(rec int, blk int64) bool {
		switch {
		case blk == 0:
			n.fault = &imageFault{kind: faultChainZero, rec: rec}
		case !im.inPM(blk, 1):
			n.fault = &imageFault{kind: faultChainRange, rec: rec, blk: blk, length: 1}
		default:
			n.chain = append(n.chain, blk)
		}
		return n.fault == nil
	}
	var buf [extentSize]byte
	for i := 0; i < int(n.di.extCount); i++ {
		var addr int64
		if i < InlineExtents {
			addr = im.g.inlineExtentAddr(n.ino, i)
		} else {
			if i == chainRecords(len(n.chain)) {
				// First record of the next indirect block: the header names
				// the first, each block's leading 8 bytes the one after it.
				next := n.di.indirect
				if k := len(n.chain); k > 0 {
					if err := im.dev.ReadAtChecked(buf[:8], n.chain[k-1]*BlockSize); err != nil {
						n.fault = &imageFault{kind: faultChainUnreadable, rec: i, blk: n.chain[k-1], length: 1, err: err}
						return
					}
					next = int64(binary.LittleEndian.Uint64(buf[:8]))
				}
				if !link(i, next) {
					return
				}
			}
			addr = n.chain[len(n.chain)-1]*BlockSize + 8 + int64((i-InlineExtents)%extPerIndirect)*extentSize
		}
		if err := im.dev.ReadAtChecked(buf[:], addr); err != nil {
			n.fault = &imageFault{kind: faultRecordUnreadable, rec: i, err: err}
			return
		}
		e := decodeExtent(buf[:])
		switch {
		case e.length <= 0:
			n.fault = &imageFault{kind: faultRecordLength, rec: i, blk: e.blk}
			return
		case !im.inPM(e.blk, e.length) && !(n.di.typ == typeFile && im.inSlow(e.blk, e.length)):
			n.fault = &imageFault{kind: faultRecordRange, rec: i, blk: e.blk, length: e.length}
			return
		}
		n.extents = append(n.extents, e)
	}
	// A chain the records never reached is still the inode's storage (the
	// chain does not shrink with the list): the header's pointer, if any,
	// must be as good as a followed one.
	if len(n.chain) == 0 && n.di.indirect != 0 {
		link(len(n.extents), n.di.indirect)
	}
}

// imageDirent is one 64-byte slot of a dirent block. live means the slot
// is marked valid and names a nonzero inode number — which may still be
// dangling, or outside the tables (inTable).
type imageDirent struct {
	addr int64
	ino  uint64
	name string
	live bool
}

// walkDirents reads every block the extents of one directory name, in list
// order, and hands visit the block's slots, or the fault that made it
// unreadable. ents is reused between calls.
func (im *image) walkDirents(extents []wextent, visit func(blk int64, ents []imageDirent, fault *imageFault)) {
	buf := make([]byte, BlockSize)
	ents := make([]imageDirent, BlockSize/DirentSize)
	for _, e := range extents {
		for b := e.blk; b < e.blk+e.length; b++ {
			if err := im.dev.ReadAtChecked(buf, b*BlockSize); err != nil {
				visit(b, nil, &imageFault{kind: faultDirentBlock, blk: b, err: err})
				continue
			}
			for i := range ents {
				off := int64(i) * DirentSize
				ino, name, valid := decodeDirent(buf[off : off+DirentSize])
				ents[i] = imageDirent{addr: b*BlockSize + off, ino: ino, name: name, live: valid && ino != 0}
			}
			visit(b, ents, nil)
		}
	}
}
