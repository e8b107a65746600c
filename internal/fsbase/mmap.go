package fsbase

import (
	"slices"
	"sort"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// vfs.Mapper over the shared base: every fsbase-derived file system
// (ext4-DAX, xfs-DAX, NOVA, PMFS, SplitFS, Strata) gets File.Mmap and the
// zero-copy mapping subsystem (internal/vmm) through these five methods.
// The fault handler itself is File.Fault in file.go.

// MapSpace implements vfs.Mapper.
func (f *File) MapSpace() *mmu.AddressSpace { return f.fs.as }

// MapSyscallNS implements vfs.Mapper.
func (f *File) MapSyscallNS() int64 { return f.fs.model.SyscallNS }

// AttachMapping implements vfs.Mapper.
func (f *File) AttachMapping(m *mmu.Mapping) {
	f.node.mu.Lock()
	f.node.mappings = append(f.node.mappings, m)
	f.node.mu.Unlock()
}

// DetachMapping implements vfs.Mapper.
func (f *File) DetachMapping(m *mmu.Mapping) {
	f.node.mu.Lock()
	f.node.mappings = slices.DeleteFunc(f.node.mappings, func(mm *mmu.Mapping) bool { return mm == m })
	f.node.mu.Unlock()
}

// MsyncRange implements vfs.Mapper: DAX stores already sit in PM, so
// durability for [off, off+n) is clwb over the backed lines plus one
// sfence. Holes have nothing to flush.
func (f *File) MsyncRange(ctx *sim.Ctx, off, n int64) error {
	if n <= 0 {
		return nil
	}
	fs := f.fs
	node := f.node
	startBlk := off / BlockSize
	endBlk := (off + n + BlockSize - 1) / BlockSize
	node.mu.RLock()
	// The list is sorted and disjoint: start at the first extent that ends
	// past startBlk, stop at the first that begins at or past endBlk.
	exts := node.extents
	first := sort.Search(len(exts), func(i int) bool { return exts[i].FileBlk+exts[i].Len > startBlk })
	for _, e := range exts[first:] {
		if e.FileBlk >= endBlk {
			break
		}
		lo, hi := e.FileBlk, e.FileBlk+e.Len
		if lo < startBlk {
			lo = startBlk
		}
		if hi > endBlk {
			hi = endBlk
		}
		fs.dev.Flush(ctx, (e.Blk+lo-e.FileBlk)*BlockSize, (hi-lo)*BlockSize)
	}
	node.mu.RUnlock()
	fs.dev.Fence(ctx)
	return nil
}

var _ vfs.Mapper = (*File)(nil)
