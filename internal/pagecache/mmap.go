package pagecache

import (
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// vfs.Mapper delegation: a cached handle can be memory-mapped iff the
// inner file can (a local FS under the cache — remote mounts aren't
// Mappers, so File.Mmap and vmm.Map report vfs.ErrNotSupported). The
// coherence rule is "Mmap bypasses the lease": attaching a mapping,
// through either entry point, flushes and drops every cached page for the
// ino, releases the client lease, and pins the ino in pass-through until
// the last mapping detaches (a File.Mmap mapping never does). Stores
// through the mapping hit PM directly, so the only coherent cache is no
// cache.

func (f *cachedFile) innerMapper() vfs.Mapper {
	m, _ := f.inner.(vfs.Mapper)
	return m
}

// MapSpace implements vfs.Mapper; nil when the inner file cannot map.
// Every mapping starts at vfs.MapSpan, which refuses a nil MapSpace, so
// the methods below run only over an inner Mapper.
func (f *cachedFile) MapSpace() *mmu.AddressSpace {
	if m := f.innerMapper(); m != nil {
		return m.MapSpace()
	}
	return nil
}

// Fault implements mmu.FaultHandler by delegation.
func (f *cachedFile) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	return f.innerMapper().Fault(ctx, pageOff)
}

// MapSyscallNS implements vfs.Mapper.
func (f *cachedFile) MapSyscallNS() int64 { return f.innerMapper().MapSyscallNS() }

// AttachMapping implements vfs.Mapper: step the cache aside, then attach
// on the inner file.
func (f *cachedFile) AttachMapping(m *mmu.Mapping) {
	f.c.mapAttach(f)
	f.innerMapper().AttachMapping(m)
}

// DetachMapping implements vfs.Mapper.
func (f *cachedFile) DetachMapping(m *mmu.Mapping) {
	f.innerMapper().DetachMapping(m)
	f.c.mapDetach(f.Ino())
}

// MsyncRange implements vfs.Mapper by delegation (the cache holds no
// pages for a mapped ino, so there is nothing of its own to flush).
func (f *cachedFile) MsyncRange(ctx *sim.Ctx, off, n int64) error {
	return f.innerMapper().MsyncRange(ctx, off, n)
}

// mapAttach enforces the bypass rule for one new mapping over f's ino:
// flush dirty pages, drop the rest, release the lease, and pin bypass.
func (c *Cache) mapAttach(f *cachedFile) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	st, ino := f.st, f.Ino()
	wasLeased := st.mode != modeNone
	st.mode = modeNone
	batch := c.collectDirtyLocked(st, nil)
	c.attrDropInoLocked(ino)
	c.mapped[ino]++
	c.stats.MapBypasses++
	c.mu.Unlock()
	// writeBack records failures as the ino's sticky flushErr; the pages
	// are dropped regardless — the mapping is about to become the only
	// truth for those bytes.
	c.writeBack(c.flushCtx, batch)
	c.mu.Lock()
	c.dropPagesLocked(st)
	c.mu.Unlock()
	if wasLeased {
		f.lf.Unlease(c.flushCtx)
	}
}

// mapDetach drops one mapping's pin on the ino.
func (c *Cache) mapDetach(ino uint64) {
	c.mu.Lock()
	if c.mapped[ino] > 1 {
		c.mapped[ino]--
	} else {
		delete(c.mapped, ino)
	}
	c.mu.Unlock()
}
