// Package winefs implements the paper's contribution: a hugepage-aware
// persistent-memory file system that ages gracefully.
//
// The design follows §3 of the paper end to end:
//
//   - the partition is split per logical CPU; each CPU owns a journal, an
//     inode table, and a data pool (Figure 5);
//   - a novel alignment-aware allocator keeps two pools per CPU — aligned
//     2MiB extents in a FIFO list and unaligned "holes" in red-black trees
//     (alloc.Pool) with best-fit allocation;
//   - crash consistency uses per-CPU fine-grained undo journals with
//     64-byte entries, a shared atomic transaction ID, and per-journal
//     wraparound counters;
//   - metadata lives at fixed, in-place-updated locations so it never
//     fragments the data area ("controlled fragmentation");
//   - data atomicity in strict mode is hybrid: journaling for aligned
//     extents (layout preserved), copy-on-write into fresh holes for
//     unaligned extents;
//   - DRAM red-black trees index directories and free space;
//   - on clean unmount the DRAM allocator state is serialised to PM; after
//     a crash it is rebuilt by scanning the per-CPU inode tables in
//     parallel, after rolling back uncommitted journal transactions.
package winefs

import (
	"encoding/binary"

	"repro/internal/alloc"
)

const (
	// BlockSize is the file-system block size.
	BlockSize = alloc.BlockSize
	// BlocksPerHuge is the number of blocks per 2MiB aligned extent.
	BlocksPerHuge = alloc.BlocksPerHuge

	// Magic identifies a WineFS superblock.
	Magic = 0x57494e45 // "WINE"

	// InodeSize is the on-PM inode slot size.
	InodeSize = 512
	// InodesPerBlock is how many inode slots fit one block.
	InodesPerBlock = BlockSize / InodeSize

	// InlineExtents is the number of extent slots inside the inode.
	InlineExtents = 12
	// extentSize is the on-PM size of one extent record.
	extentSize = 16
	// extPerIndirect is how many extent records fit an indirect block
	// (minus the 8-byte next pointer).
	extPerIndirect = (BlockSize - 8) / extentSize

	// JournalBlocks is the per-CPU journal size in blocks (64 × 4KiB =
	// 256KiB = 4096 entries, the header's included). It bounds one
	// operation, which is one transaction: the paper's system calls log at
	// most 10 entries (§3.6), ours one per metadata region they change, and
	// committed transactions are reclaimed immediately.
	JournalBlocks = 64
	// EntrySize is the journal entry size: one cache line (§3.5).
	EntrySize = 64

	// DirentSize is the on-PM directory entry size.
	DirentSize = 64
	// MaxNameLen is the longest file name a dirent can hold.
	MaxNameLen = DirentSize - 10

	// inodeMagic marks a live inode slot.
	inodeMagic = 0xA11E
)

// Inode type codes.
const (
	typeFree = 0
	typeFile = 1
	typeDir  = 2
)

// Inode flags.
const (
	flagAligned = 1 << 0 // the file carries the alignment xattr (§3.6)
)

// geometry computes and caches all on-PM offsets. Everything is derived
// from the device size and CPU count at mkfs time and re-derived at mount.
type geometry struct {
	totalBlocks  int64
	cpus         int
	inodesPerCPU int64

	unmountStart    int64 // block of the serialized-freelist area
	unmountBlocks   int64
	cpuRegionStart  int64 // first per-CPU metadata block
	cpuRegionBlocks int64 // journal + inode table, per CPU
	dataStart       int64 // first data block
	dataBlocks      int64 // total data blocks
	poolBlocks      int64 // data blocks per CPU pool
}

func makeGeometry(totalBlocks int64, cpus int, inodesPerCPU int64) geometry {
	g := geometry{totalBlocks: totalBlocks, cpus: cpus, inodesPerCPU: inodesPerCPU}
	if g.inodesPerCPU == 0 {
		// Default: one inode per 32 data blocks, at least 512 per CPU.
		g.inodesPerCPU = totalBlocks / 32 / int64(cpus)
		if g.inodesPerCPU < 512 {
			g.inodesPerCPU = 512
		}
	}
	// Round inode count to whole blocks.
	g.inodesPerCPU = (g.inodesPerCPU + InodesPerBlock - 1) / InodesPerBlock * InodesPerBlock
	g.unmountStart = 1 // block 0 is the superblock
	g.unmountBlocks = totalBlocks / 512
	if g.unmountBlocks < 16 {
		g.unmountBlocks = 16
	}
	g.cpuRegionStart = g.unmountStart + g.unmountBlocks
	inodeBlocks := g.inodesPerCPU / InodesPerBlock
	g.cpuRegionBlocks = JournalBlocks + inodeBlocks
	metaEnd := g.cpuRegionStart + g.cpuRegionBlocks*int64(cpus)
	// Data area starts at the next hugepage boundary so pools begin aligned.
	g.dataStart = (metaEnd + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	g.dataBlocks = totalBlocks - g.dataStart
	// Each CPU pool is a whole number of hugepage extents.
	g.poolBlocks = g.dataBlocks / int64(cpus) / BlocksPerHuge * BlocksPerHuge
	return g
}

// journalBase returns the byte address of cpu's journal region (header
// entry + entry array).
func (g *geometry) journalBase(cpu int) int64 {
	return (g.cpuRegionStart + g.cpuRegionBlocks*int64(cpu)) * BlockSize
}

// journalEntries is the usable entry count per journal (slot 0 is the
// header).
func (g *geometry) journalEntries() int64 {
	return JournalBlocks*BlockSize/EntrySize - 1
}

// inodeTableBase returns the byte address of cpu's inode table.
func (g *geometry) inodeTableBase(cpu int) int64 {
	return (g.cpuRegionStart + g.cpuRegionBlocks*int64(cpu) + JournalBlocks) * BlockSize
}

// inodeAddr returns the byte address of an inode slot. Ino 0 is invalid;
// ino n lives on CPU (n-1)/inodesPerCPU at slot (n-1)%inodesPerCPU.
func (g *geometry) inodeAddr(ino uint64) int64 {
	idx := int64(ino - 1)
	cpu := int(idx / g.inodesPerCPU)
	slot := idx % g.inodesPerCPU
	return g.inodeTableBase(cpu) + slot*InodeSize
}

// inlineExtentAddr returns the byte address of extent record slot (below
// InlineExtents) inside ino's inode slot.
func (g *geometry) inlineExtentAddr(ino uint64, slot int) int64 {
	return g.inodeAddr(ino) + inoOffExtents + int64(slot)*extentSize
}

// inoFor composes an inode number from CPU and slot.
func (g *geometry) inoFor(cpu int, slot int64) uint64 {
	return uint64(int64(cpu)*g.inodesPerCPU+slot) + 1
}

// cpuOfIno returns the CPU whose table holds ino.
func (g *geometry) cpuOfIno(ino uint64) int {
	return int(int64(ino-1) / g.inodesPerCPU)
}

// poolRange returns cpu's data pool as [start, end) blocks.
func (g *geometry) poolRange(cpu int) (start, end int64) {
	start = g.dataStart + int64(cpu)*g.poolBlocks
	return start, start + g.poolBlocks
}

// cpuOfBlock returns the CPU whose pool contains the block, for returning
// freed extents to their original pool (§3.4).
func (g *geometry) cpuOfBlock(blk int64) int {
	c := int((blk - g.dataStart) / g.poolBlocks)
	if c < 0 {
		c = 0
	}
	if c >= g.cpus {
		c = g.cpus - 1
	}
	return c
}

// --- superblock -----------------------------------------------------------

type superblock struct {
	magic        uint32
	version      uint32
	totalBlocks  int64
	cpus         int32
	inodesPerCPU int64
	clean        bool
	nextTxID     uint64 // persisted at unmount so TxIDs keep increasing
}

const sbSize = 64

func (sb *superblock) encode() []byte {
	b := make([]byte, sbSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.magic)
	le.PutUint32(b[4:], sb.version)
	le.PutUint64(b[8:], uint64(sb.totalBlocks))
	le.PutUint32(b[16:], uint32(sb.cpus))
	le.PutUint64(b[20:], uint64(sb.inodesPerCPU))
	if sb.clean {
		b[28] = 1
	}
	le.PutUint64(b[32:], sb.nextTxID)
	return b
}

func decodeSuperblock(b []byte) superblock {
	le := binary.LittleEndian
	return superblock{
		magic:        le.Uint32(b[0:]),
		version:      le.Uint32(b[4:]),
		totalBlocks:  int64(le.Uint64(b[8:])),
		cpus:         int32(le.Uint32(b[16:])),
		inodesPerCPU: int64(le.Uint64(b[20:])),
		clean:        b[28] == 1,
		nextTxID:     le.Uint64(b[32:]),
	}
}

// --- on-PM inode ----------------------------------------------------------

// wextent is a file extent: fileBlk is the logical block offset within the
// file, blk the physical block, and len the run length in blocks. Files may
// be sparse (gaps in fileBlk).
type wextent struct {
	fileBlk int64
	blk     int64
	length  int64

	// usage is what tier placement knows of the data (tier.go). It is
	// DRAM-only — not encoded in the 16-byte PM record — so every extent
	// is cold and unreferenced after a mount.
	usage
}

func encodeExtent(b []byte, e wextent) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(e.fileBlk))
	le.PutUint32(b[4:], uint32(e.blk))
	le.PutUint32(b[8:], uint32(e.length))
	le.PutUint32(b[12:], 0)
}

func decodeExtent(b []byte) wextent {
	le := binary.LittleEndian
	return wextent{
		fileBlk: int64(le.Uint32(b[0:])),
		blk:     int64(le.Uint32(b[4:])),
		length:  int64(le.Uint32(b[8:])),
	}
}

// dinode is the decoded on-PM inode header.
type dinode struct {
	magic    uint16
	typ      uint8
	flags    uint32
	size     int64
	nlink    uint32
	extCount uint32
	indirect int64 // block number of first indirect extent block, 0 = none
}

// Inode header field offsets within the 512-byte slot. The first 32 bytes
// form "piece 0", journaled as a unit; extent slots are journaled
// individually (16B each, two per 32-byte undo record at worst).
const (
	inoOffMagic    = 0
	inoOffType     = 2
	inoOffFlags    = 4
	inoOffSize     = 8
	inoOffNlink    = 16
	inoOffExtCount = 20
	inoOffIndirect = 24
	inoOffExtents  = 64

	// inoHeaderSize is piece 0: the header fields, written as a unit.
	inoHeaderSize = 32
)

// encodeHeader encodes into a caller-owned buffer of at least
// inoHeaderSize bytes and returns it.
func (di *dinode) encodeHeader(b []byte) []byte {
	le := binary.LittleEndian
	le.PutUint16(b[inoOffMagic:], di.magic)
	b[inoOffType], b[inoOffType+1] = di.typ, 0 // the pad byte too: b may be reused scratch
	le.PutUint32(b[inoOffFlags:], di.flags)
	le.PutUint64(b[inoOffSize:], uint64(di.size))
	le.PutUint32(b[inoOffNlink:], di.nlink)
	le.PutUint32(b[inoOffExtCount:], di.extCount)
	le.PutUint64(b[inoOffIndirect:], uint64(di.indirect))
	return b
}

func decodeInodeHeader(b []byte) dinode {
	le := binary.LittleEndian
	return dinode{
		magic:    le.Uint16(b[inoOffMagic:]),
		typ:      b[inoOffType],
		flags:    le.Uint32(b[inoOffFlags:]),
		size:     int64(le.Uint64(b[inoOffSize:])),
		nlink:    le.Uint32(b[inoOffNlink:]),
		extCount: le.Uint32(b[inoOffExtCount:]),
		indirect: int64(le.Uint64(b[inoOffIndirect:])),
	}
}

// --- on-PM dirent ---------------------------------------------------------

// dirent layout: ino u64 | valid u8 | nameLen u8 | name[54].
func encodeDirent(b []byte, ino uint64, name string) {
	le := binary.LittleEndian
	for i := range b[:DirentSize] {
		b[i] = 0
	}
	le.PutUint64(b[0:], ino)
	b[8] = 1
	b[9] = uint8(len(name))
	copy(b[10:], name)
}

func decodeDirent(b []byte) (ino uint64, name string, valid bool) {
	le := binary.LittleEndian
	ino = le.Uint64(b[0:])
	valid = b[8] == 1
	n := int(b[9])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	name = string(b[10 : 10+n])
	return
}
