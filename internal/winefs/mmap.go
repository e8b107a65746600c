package winefs

import (
	"slices"
	"sort"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// This file is the winefs side of the zero-copy mapping subsystem
// (internal/vmm): vfs.Mapper plus the lease-coordination hooks. The
// fault handler itself lives in file.go (Fault); here are the lifecycle
// pieces — attach/detach bookkeeping, msync durability, hole punching,
// and the mapped-inode reporting the file server's lease table consults.

// MapSpace implements vfs.Mapper.
func (f *File) MapSpace() *mmu.AddressSpace { return f.fs.as }

// MapSyscallNS implements vfs.Mapper.
func (f *File) MapSyscallNS() int64 { return f.fs.model.SyscallNS }

// AttachMapping implements vfs.Mapper: register a live mapping for
// layout-change shootdowns. Mapping a file whose layout defeats
// hugepages queues it for reactive rewriting (§3.6), and any client
// leases on the inode are revoked — DAX stores bypass every cache
// protocol, so remote caching and local mappings are mutually exclusive.
func (f *File) AttachMapping(m *mmu.Mapping) {
	f.fs.maybeQueueRewrite(f.ino)
	f.ino.mu.Lock()
	f.ino.mappings = append(f.ino.mappings, m)
	f.ino.mu.Unlock()
	if hook := f.fs.mapHook.Load(); hook != nil {
		(*hook)(f.ino.ino)
	}
}

// DetachMapping implements vfs.Mapper.
func (f *File) DetachMapping(m *mmu.Mapping) {
	f.ino.mu.Lock()
	f.ino.mappings = slices.DeleteFunc(f.ino.mappings, func(mm *mmu.Mapping) bool { return mm == m })
	f.ino.mu.Unlock()
}

// MsyncRange implements vfs.Mapper: make DAX stores to [off, off+n)
// durable. Stores through a mapping already sit in PM (they went through
// the mapped lines directly), so durability is clwb over the backed
// lines plus one sfence; the metadata that backed them was journaled at
// fault time, so no further journal barrier is required in either
// consistency mode (DESIGN.md §11). Holes in the range have nothing to
// flush.
func (f *File) MsyncRange(ctx *sim.Ctx, off, n int64) error {
	if n <= 0 {
		return nil
	}
	fs := f.fs
	ino := f.ino
	startBlk := off / BlockSize
	endBlk := (off + n + BlockSize - 1) / BlockSize
	ino.mu.RLock()
	// The list is sorted and disjoint: start at the first extent that ends
	// past startBlk, stop at the first that begins at or past endBlk.
	exts := ino.extents
	first := sort.Search(len(exts), func(i int) bool { return exts[i].fileBlk+exts[i].length > startBlk })
	for _, e := range exts[first:] {
		if e.fileBlk >= endBlk {
			break
		}
		lo := max(e.fileBlk, startBlk)
		hi := min(e.fileBlk+e.length, endBlk)
		fs.dev.Flush(ctx, (e.blk+lo-e.fileBlk)*BlockSize, (hi-lo)*BlockSize)
	}
	ino.mu.RUnlock()
	fs.dev.Fence(ctx)
	return nil
}

// PunchHole implements vfs.HolePuncher: deallocate the whole blocks of
// [off, off+n) and zero the partial edges, so the range reads back as
// zeros and the freed blocks return to their allocator pools. Live
// mappings over the file are shot down before the blocks can be reused;
// refaults see the hole (demand-zero inside the file, vfs.ErrMapFault
// past EOF).
func (f *File) PunchHole(ctx *sim.Ctx, off, n int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	if err := f.fs.writable(); err != nil {
		return err
	}
	if off < 0 || n <= 0 {
		return mmu.ErrOutOfRange
	}
	fs := f.fs
	ino := f.ino
	h := ino.lock().Lock(ctx)
	defer h.Unlock(ctx)
	ino.mu.Lock()
	defer ino.mu.Unlock()

	if off >= ino.size {
		return nil
	}
	if off+n > ino.size {
		n = ino.size - off
	}
	// Zero the partial edge bytes in place; only whole blocks deallocate.
	startBlk := (off + BlockSize - 1) / BlockSize
	endBlk := (off + n) / BlockSize
	zero := func(b, zOff, zN int64) {
		if phys, _, ok := ino.findRun(b); ok {
			fs.dataZero(ctx, phys*BlockSize+zOff, zN)
		}
	}
	if off%BlockSize != 0 {
		head := min(n, BlockSize-off%BlockSize)
		zero(off/BlockSize, off%BlockSize, head)
	}
	if (off+n)%BlockSize != 0 && (off+n)/BlockSize >= startBlk {
		zero((off+n)/BlockSize, 0, (off+n)%BlockSize)
	}
	if startBlk >= endBlk {
		return nil
	}
	// Refaults block on ino.mu until the new layout is in place.
	tx := fs.begin(ctx, ino)
	_, err := fs.detachRange(ctx, tx, ino, startBlk, endBlk)
	return tx.finish("punch", err)
}

// ProbeHuge implements vfs.HugeProber: report, without faulting or
// allocating, whether the 2MiB file chunk at chunkOff is hugepage-
// eligible. install (if non-nil) runs under the inode's layout read
// lock, so a translation it plants cannot race a concurrent layout
// change freeing the probed blocks — truncate/punch/rewrite take the
// write lock and shoot mappings down before any block returns to the
// allocator.
func (f *File) ProbeHuge(chunkOff int64, install func(phys int64)) bool {
	ino := f.ino
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if chunkOff < 0 || chunkOff%mmu.HugePage != 0 || chunkOff+mmu.HugePage > ino.size {
		return false
	}
	r, _ := ino.mapAt(chunkOff)
	if r.Huge && install != nil {
		install(r.Phys)
	}
	return r.Huge
}

// notifyPromote tells every live mapping over ino that its layout just
// improved (a reactive rewrite or a defrag migration re-formed aligned
// extents), so the mapping subsystem re-promotes eligible chunks without
// waiting for a refault. Callers must NOT hold ino.mu: the vmm hook
// probes eligibility back through ProbeHuge, which takes the read lock.
func (fs *FS) notifyPromote(ctx *sim.Ctx, ino *inode) {
	ino.mu.RLock()
	maps := append([]*mmu.Mapping(nil), ino.mappings...)
	ino.mu.RUnlock()
	for _, m := range maps {
		m.NotifyPromote(ctx)
	}
}

// MappedCount implements vfs.MapTracker: how many live mappings cover
// the inode. The file server refuses to grant client leases while this
// is non-zero.
func (fs *FS) MappedCount(ino uint64) int {
	in := fs.getInode(ino)
	if in == nil {
		return 0
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.mappings)
}

// SetMapHook implements vfs.MapNotifier.
func (fs *FS) SetMapHook(hook func(ino uint64)) {
	if hook == nil {
		fs.mapHook.Store(nil)
		return
	}
	fs.mapHook.Store(&hook)
}

var _ vfs.Mapper = (*File)(nil)
var _ vfs.HugeProber = (*File)(nil)
var _ vfs.HolePuncher = (*File)(nil)
var _ vfs.MapTracker = (*FS)(nil)
var _ vfs.MapNotifier = (*FS)(nil)
