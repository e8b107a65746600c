// Package mmu simulates the virtual-memory hardware whose behaviour drives
// every headline result in the paper: page tables with 4KiB base pages and
// 2MiB hugepages, a TLB, and a last-level cache polluted by page-table
// entries on TLB misses.
//
// The central rule (paper §2.2) is structural and enforced in exactly one
// place, HugeEligible: a 2MiB region of a file can be mapped with a
// hugepage if and only if one physically contiguous extent backs all of
// it from a 2MiB-aligned physical address, with the file offset also
// 2MiB-aligned.
// "Even a single byte offset from alignment forces the operating system to
// fall back to base pages."
//
// File systems implement FaultHandler; the Mapping implements the
// OS+hardware side: faults, TLB lookups, page walks, and the cache effects
// of walking.
package mmu

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
)

const (
	// BasePage is the base page size (4KiB).
	BasePage = 4096
	// HugePage is the hugepage size (2MiB).
	HugePage = 2 << 20
	// PagesPerHuge is the number of base pages per hugepage.
	PagesPerHuge = HugePage / BasePage
)

// Extent is a physically contiguous run of bytes backing a portion of a
// file, in file-offset order.
type Extent struct {
	FileOff int64
	Phys    int64
	Len     int64
}

// HugeEligible reports whether the 2MiB file chunk starting at chunkOff
// (which must be HugePage-aligned) may be mapped with a hugepage, given e,
// the extent that covers chunkOff, and if so returns the physical address
// of the chunk. The condition is the paper's: the one extent must cover the
// whole chunk and put its first byte on a 2MiB-aligned physical address.
// An e that does not cover chunkOff (a hole: the zero Extent) answers no.
func HugeEligible(e Extent, chunkOff int64) (int64, bool) {
	if chunkOff < e.FileOff || chunkOff+HugePage > e.FileOff+e.Len {
		return 0, false // a hole, or the chunk spans an extent boundary
	}
	phys := e.Phys + (chunkOff - e.FileOff)
	if phys%HugePage != 0 {
		return 0, false
	}
	return phys, true
}

// Resolve answers a fault on the base page at pageOff from e, the extent
// covering that page: the page's whole chunk as a hugepage when e makes it
// HugeEligible, the page alone otherwise. The extent covering the page is
// the only one that can cover its whole chunk, so one lookup decides both.
func Resolve(e Extent, pageOff int64) FaultResult {
	if phys, ok := HugeEligible(e, pageOff/HugePage*HugePage); ok {
		return FaultResult{Huge: true, Phys: phys}
	}
	return FaultResult{Phys: e.Phys + (pageOff - e.FileOff)}
}

// FaultResult is a file system's answer to a page fault.
type FaultResult struct {
	// Huge indicates a hugepage mapping was established; Phys is then the
	// 2MiB-aligned physical address of the whole chunk. Otherwise Phys is
	// the physical address of the faulting 4KiB page.
	Huge bool
	Phys int64
}

// FaultHandler is implemented by each file system: resolve the fault for
// the base page at file offset pageOff (4KiB-aligned). The handler performs
// any allocation/zeroing its design requires (charging the cost to ctx) and
// decides — via HugeEligible on the extent its own index finds covering
// the page — whether a hugepage mapping is possible.
type FaultHandler interface {
	Fault(ctx *sim.Ctx, pageOff int64) (FaultResult, error)
}

// ErrOutOfRange is returned for accesses beyond a mapping's length.
var ErrOutOfRange = errors.New("mmu: access outside mapping")

// AddressSpace models one process' virtual memory: a TLB and a share of
// the machine's last-level cache. Mappings are carved from a single
// monotonically growing virtual address range so TLB keys never collide
// across mappings.
type AddressSpace struct {
	dev   *pmem.Device
	model *pmem.CostModel

	// cacheMu guards the two TLBs and the LLC together: an access takes
	// it once per translation granule for the TLB lookup, the page walk
	// and the data lines, not once per structure touched.
	cacheMu sync.Mutex
	tlb4k   *assoc
	tlb2m   *assoc
	llc     *assoc

	// Exact forces the reference per-cache-line accounting loop instead of
	// the batched run accounting. Both produce bit-identical virtual-time
	// results (the determinism golden test proves it); Exact exists as that
	// test's reference arm and as an escape hatch for debugging.
	Exact bool

	mu     sync.Mutex
	nextVA int64
}

// NewAddressSpace creates a process address space on dev with a private
// LLC simulation sized from the device model.
func NewAddressSpace(dev *pmem.Device) *AddressSpace {
	m := dev.Model()
	return &AddressSpace{
		dev:    dev,
		model:  m,
		tlb4k:  newAssoc(m.TLBEntries4K, 4),
		tlb2m:  newAssoc(m.TLBEntries2M, 4),
		llc:    newAssoc(int(m.LLCBytes/pmem.CacheLine), m.LLCWays),
		nextVA: 1 << 40, // arbitrary non-zero base
	}
}

// FlushTLB empties both TLBs (e.g. after munmap or for experiment setup).
func (as *AddressSpace) FlushTLB() {
	as.cacheMu.Lock()
	as.tlb4k.flushAll()
	as.tlb2m.flushAll()
	as.cacheMu.Unlock()
}

// FlushCache empties the LLC simulation.
func (as *AddressSpace) FlushCache() {
	as.cacheMu.Lock()
	as.llc.flushAll()
	as.cacheMu.Unlock()
}

// Mapping is one mmap'ed file region.
type Mapping struct {
	as      *AddressSpace
	dev     *pmem.Device
	model   *pmem.CostModel
	handler FaultHandler
	va      int64
	length  int64

	mu     sync.Mutex
	chunks []chunk

	// shootMu and shootGen are the wait-for-in-flight-accesses half of a
	// TLB shootdown. Accesses resolve a translation under mu, then touch
	// the device outside it; Invalidate bumps shootGen and takes shootMu
	// exclusively, so it cannot return while an access that resolved
	// against the old page tables is still moving bytes — the model of a
	// shootdown IPI waiting for every core's acknowledgement. Without it
	// the caller could free and recycle the displaced blocks under a
	// still-running access.
	shootMu  sync.RWMutex
	shootGen atomic.Uint64

	// promoteHook is set by the mapping's owner (internal/vmm): the file
	// system invokes it, via NotifyPromote, after a layout change that can
	// only improve hugepage eligibility (reactive rewrite, online defrag),
	// so live mappings re-promote without waiting for a refault.
	promoteHook atomic.Pointer[func(ctx *sim.Ctx)]
}

// chunk tracks the mapping state of one 2MiB-aligned slice of the file.
type chunk struct {
	huge     bool
	hugePhys int64
	pages    []int64 // lazily allocated; phys+1 per 4KiB page, 0 = unmapped
}

// NewMapping memory-maps length bytes of a file whose faults are served by
// handler. No pages are mapped until touched (or Prefault is called);
// mmap() itself costs one syscall, charged by the caller.
func (as *AddressSpace) NewMapping(length int64, handler FaultHandler) *Mapping {
	if length <= 0 {
		panic("mmu: non-positive mapping length")
	}
	nchunks := (length + HugePage - 1) / HugePage
	as.mu.Lock()
	va := as.nextVA
	as.nextVA += nchunks * HugePage
	as.mu.Unlock()
	return &Mapping{
		as:      as,
		dev:     as.dev,
		model:   as.model,
		handler: handler,
		va:      va,
		length:  length,
		chunks:  make([]chunk, nchunks),
	}
}

// Len returns the mapping length in bytes.
func (m *Mapping) Len() int64 { return m.length }

// MappedPages reports how many base pages and hugepages are currently
// mapped — used by tests and by the Figure 1/Table 2 analyses.
func (m *Mapping) MappedPages() (base, huge int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.chunks {
		c := &m.chunks[i]
		if c.huge {
			huge++
			continue
		}
		for _, p := range c.pages {
			if p != 0 {
				base++
			}
		}
	}
	return base, huge
}

// SetPromoteHook registers (or, with nil, clears) the owner's promotion
// callback; see NotifyPromote.
func (m *Mapping) SetPromoteHook(h func(ctx *sim.Ctx)) {
	if h == nil {
		m.promoteHook.Store(nil)
		return
	}
	m.promoteHook.Store(&h)
}

// NotifyPromote tells the mapping's owner that the backing layout
// improved (the khugepaged wakeup of the paper's §3.5 defragmenter). The
// caller must hold no file-system locks: the hook re-probes eligibility
// through the file. Costs accrue to ctx — the maintenance thread, not
// the foreground.
func (m *Mapping) NotifyPromote(ctx *sim.Ctx) {
	if h := m.promoteHook.Load(); h != nil {
		(*h)(ctx)
	}
}

// PromoteChunk collapses the 2MiB mapping chunk at off (mapping-relative,
// hugepage-aligned) to a single hugepage translation backed by the
// physical byte address phys. Unlike a fault, it never allocates or
// zeroes — the caller proved the chunk HugeEligible, so the data is
// already in place. Returns false if the chunk was already huge or off is
// out of range.
func (m *Mapping) PromoteChunk(ctx *sim.Ctx, off, phys int64) bool {
	if off < 0 || off%HugePage != 0 || off >= m.length {
		return false
	}
	m.mu.Lock()
	c := &m.chunks[int(off/HugePage)]
	if c.huge {
		m.mu.Unlock()
		return false
	}
	c.huge = true
	c.hugePhys = phys
	c.pages = nil
	m.mu.Unlock()
	// The collapse swaps up to 512 PTEs for one PMD: stale base-page
	// translations must leave the TLB, and installing the PMD costs one
	// soft fault's worth of page-table work.
	m.as.FlushTLB()
	ctx.Counters.SoftFaults++
	ctx.Counters.FaultNS += m.model.HugeFaultNS
	ctx.Advance(m.model.HugeFaultNS)
	return true
}

// pageState resolves the mapping state for the page containing off.
// Returns the chunk index and base-page index within the chunk.
func (m *Mapping) locate(off int64) (ci int, pi int) {
	return int(off / HugePage), int(off % HugePage / BasePage)
}

// ensureMapped guarantees the page containing off is mapped, taking a
// fault if needed. Returns the physical address of byte off, whether the
// translation is a hugepage, and the shootdown generation the translation
// was read under — devAccess revalidates against it before touching the
// device, since an Invalidate may land between resolution and access.
func (m *Mapping) ensureMapped(ctx *sim.Ctx, off int64) (phys int64, huge bool, gen uint64, err error) {
	ci, pi := m.locate(off)
	m.mu.Lock()
	c := &m.chunks[ci]
	if c.huge {
		phys := c.hugePhys + off%HugePage
		gen := m.shootGen.Load()
		m.mu.Unlock()
		return phys, true, gen, nil
	}
	if c.pages != nil && c.pages[pi] != 0 {
		phys := c.pages[pi] - 1 + off%BasePage
		gen := m.shootGen.Load()
		m.mu.Unlock()
		return phys, false, gen, nil
	}
	m.mu.Unlock()

	// Page fault. The handler may allocate and zero; its costs accrue to ctx.
	sp := ctx.StartSpan("mmu.fault")
	pageOff := off / BasePage * BasePage
	res, ferr := m.handler.Fault(ctx, pageOff)
	if ferr != nil {
		ctx.EndSpan(sp)
		return 0, false, 0, ferr
	}
	defer ctx.EndSpan(sp)
	m.mu.Lock()
	defer m.mu.Unlock()
	gen = m.shootGen.Load()
	c = &m.chunks[ci]
	if res.Huge {
		if !c.huge {
			c.huge = true
			c.hugePhys = res.Phys
			c.pages = nil
			ctx.Counters.HugeFaults++
			ctx.Counters.FaultNS += m.model.HugeFaultNS
			ctx.Advance(m.model.HugeFaultNS)
		}
		return c.hugePhys + off%HugePage, true, gen, nil
	}
	if c.pages == nil {
		c.pages = make([]int64, PagesPerHuge)
	}
	if c.pages[pi] == 0 {
		c.pages[pi] = res.Phys + 1
		ctx.Counters.PageFaults++
		ctx.Counters.FaultNS += m.model.BaseFaultNS
		ctx.Advance(m.model.BaseFaultNS)
	}
	return c.pages[pi] - 1 + off%BasePage, false, gen, nil
}

// devAccess moves bytes against a translation resolved by ensureMapped,
// holding the shootdown read-lock for the duration. Returns false without
// touching the device when the translation went stale (an Invalidate ran
// since resolution) — the caller re-resolves and retries. The accounting
// for the granule is charged only after the access succeeds, so a retry
// never double-charges.
func (m *Mapping) devAccess(p []byte, phys int64, gen uint64, write bool) bool {
	m.shootMu.RLock()
	defer m.shootMu.RUnlock()
	if m.shootGen.Load() != gen {
		return false
	}
	if write {
		m.dev.WriteAt(p, phys)
	} else {
		m.dev.ReadAt(p, phys)
	}
	return true
}

// translate charges TLB/page-walk costs for accessing the page containing
// virtual offset off, given its mapping kind. The caller holds
// m.as.cacheMu.
func (m *Mapping) translate(ctx *sim.Ctx, off int64, huge bool) {
	var key uint64
	var tlb *assoc
	if huge {
		key = uint64((m.va + off) / HugePage)
		tlb = m.as.tlb2m
	} else {
		key = uint64((m.va + off) / BasePage)
		tlb = m.as.tlb4k
	}
	if tlb.touch(key) {
		ctx.Counters.TLBHits++
		return
	}
	ctx.Counters.TLBMisses++
	// Page walk: the leaf PTE line and its parent directory entry are
	// fetched through the cache hierarchy, polluting the LLC — this is the
	// mechanism behind Figure 4 ("the array element that is read has been
	// knocked out of the processor cache by page table entries").
	var walk int64
	if m.as.llc.touch(pteLineKey(key, huge)) {
		walk += m.model.PageWalkNS
	} else {
		walk += m.model.PageWalkMemNS
	}
	if m.as.llc.touch(pmdLineKey(key, huge)) {
		walk += m.model.PageWalkNS / 2
	} else {
		walk += m.model.PageWalkMemNS
	}
	ctx.Counters.PageWalkNS += walk
	ctx.Advance(walk)
}

// translateLocked is translate under its own hold of m.as.cacheMu, for
// the paths that touch no data lines.
func (m *Mapping) translateLocked(ctx *sim.Ctx, off int64, huge bool) {
	m.as.cacheMu.Lock()
	m.translate(ctx, off, huge)
	m.as.cacheMu.Unlock()
}

// pteLineKey gives the synthetic cache-line address of the leaf page-table
// entry for a virtual page. Eight 8-byte PTEs share a 64-byte line, so
// sequential 4KiB pages share walk lines — matching real page-table
// locality. Hugepage PMD entries live in a disjoint key space.
func pteLineKey(vpn uint64, huge bool) uint64 {
	const pteSpace = 1 << 62
	if huge {
		return pteSpace | (1 << 61) | vpn/8
	}
	return pteSpace | vpn/8
}

// pmdLineKey is the cache line of the next walk level (512 leaf entries
// per directory line-group).
func pmdLineKey(vpn uint64, huge bool) uint64 {
	const pmdSpace = 1 << 60
	if huge {
		return pmdSpace | (1 << 59) | vpn/(8*512)
	}
	return pmdSpace | vpn/(8*512)
}

// dataLine charges cache/memory costs for touching the 64B line at phys.
// Loads that miss the LLC pay the PM read latency; stores are posted
// (write-combining) and pay the PM write latency without allocating. The
// caller holds m.as.cacheMu.
func (m *Mapping) dataLine(ctx *sim.Ctx, phys int64, write bool) {
	if write {
		ctx.Advance(m.model.WriteLat64)
		ctx.Counters.PMWriteBytes += pmem.CacheLine
		// Written lines are cached (write-back) — they may serve later reads.
		m.as.llc.touch(uint64(phys / pmem.CacheLine))
		return
	}
	if m.as.llc.touch(uint64(phys / pmem.CacheLine)) {
		ctx.Counters.LLCHits++
		ctx.Advance(m.model.LLCHitNS)
		return
	}
	ctx.Counters.LLCMisses++
	ctx.Counters.PMReadBytes += pmem.CacheLine
	ctx.Advance(m.model.ReadLat64)
}

// Read copies n = len(p) bytes at mapping offset off into p, simulating
// the full load path. Small accesses (< 2KiB) model each cache line;
// larger ones use the streaming path.
func (m *Mapping) Read(ctx *sim.Ctx, p []byte, off int64) error {
	return m.access(ctx, p, off, false)
}

// Write stores p at mapping offset off, simulating the full store path.
func (m *Mapping) Write(ctx *sim.Ctx, p []byte, off int64) error {
	return m.access(ctx, p, off, true)
}

const streamThreshold = 2048

func (m *Mapping) access(ctx *sim.Ctx, p []byte, off int64, write bool) error {
	n := int64(len(p))
	if off < 0 || off+n > m.length {
		return ErrOutOfRange
	}
	if n == 0 {
		return nil
	}
	if n >= streamThreshold {
		return m.stream(ctx, p, off, write)
	}
	if m.as.Exact {
		return m.accessFineExact(ctx, p, off, write)
	}
	return m.accessFine(ctx, p, off, write)
}

// accessFine is the cache-line-accurate path for small accesses, batched by
// translation granule. It is bit-identical to accessFineExact because every
// batch step is an exact algebraic collapse of the per-line loop:
//
//   - All lines inside one granule share a translation: after the first
//     line's ensureMapped the page cannot unmap mid-run, and repeat lookups
//     return the same phys with no cost, so one call suffices.
//   - All lines inside one granule share one TLB key. The first translate
//     inserts/promotes it to MRU; every later line's touch would hit the
//     MRU way, which moves nothing — so TLB state is unchanged and the
//     hits are counted arithmetically.
//   - The LLC sees the same touch sequence in the same order: (on a TLB
//     miss) pte line, pmd line, then data lines first..last, in one
//     touchRun call instead of n. Per-line hit/miss costs are summed into
//     one Advance — int64 addition commutes.
//   - The device sees one ReadAt/WriteAt covering the run instead of one
//     per line; bytes and offsets are identical (phys is contiguous within
//     a granule). Only crash-trace record granularity could differ, and
//     the fine path is not used while crash tracing is armed.
func (m *Mapping) accessFine(ctx *sim.Ctx, p []byte, off int64, write bool) error {
	pos := off
	rem := p
	for len(rem) > 0 {
		phys, huge, gen, err := m.ensureMapped(ctx, pos)
		if err != nil {
			return err
		}
		granule := int64(BasePage)
		if huge {
			granule = HugePage
		}
		granEnd := (pos/granule + 1) * granule
		k := granEnd - pos
		if k > int64(len(rem)) {
			k = int64(len(rem))
		}
		if !m.devAccess(rem[:k], phys, gen, write) {
			continue // shot down since resolution: re-fault this granule
		}
		firstLine := phys / pmem.CacheLine
		nLines := (phys+k-1)/pmem.CacheLine - firstLine + 1
		m.as.cacheMu.Lock()
		m.translate(ctx, pos, huge)
		hits := int64(m.as.llc.touchRun(uint64(firstLine), int(nLines)))
		m.as.cacheMu.Unlock()
		ctx.Counters.TLBHits += nLines - 1
		if write {
			ctx.Counters.PMWriteBytes += nLines * pmem.CacheLine
			ctx.Advance(nLines * m.model.WriteLat64)
		} else {
			misses := nLines - hits
			ctx.Counters.LLCHits += hits
			ctx.Counters.LLCMisses += misses
			ctx.Counters.PMReadBytes += misses * pmem.CacheLine
			ctx.Advance(hits*m.model.LLCHitNS + misses*m.model.ReadLat64)
		}
		rem = rem[k:]
		pos += k
	}
	return nil
}

// accessFineExact is the reference per-cache-line loop: every line pays its
// own translation lookup, LLC touch and device segment. accessFine must
// stay bit-identical to this.
func (m *Mapping) accessFineExact(ctx *sim.Ctx, p []byte, off int64, write bool) error {
	pos := off
	rem := p
	for len(rem) > 0 {
		phys, huge, gen, err := m.ensureMapped(ctx, pos)
		if err != nil {
			return err
		}
		// Bytes until end of this cache line.
		lineEnd := (phys/pmem.CacheLine + 1) * pmem.CacheLine
		k := lineEnd - phys
		if k > int64(len(rem)) {
			k = int64(len(rem))
		}
		if !m.devAccess(rem[:k], phys, gen, write) {
			continue // shot down since resolution: re-fault this line
		}
		m.as.cacheMu.Lock()
		m.translate(ctx, pos, huge)
		m.dataLine(ctx, phys, write)
		m.as.cacheMu.Unlock()
		rem = rem[k:]
		pos += k
	}
	return nil
}

// stream is the bulk path: per-page translation costs plus streaming
// copy bandwidth, without per-line cache simulation.
func (m *Mapping) stream(ctx *sim.Ctx, p []byte, off int64, write bool) error {
	pos := off
	rem := p
	for len(rem) > 0 {
		phys, huge, gen, err := m.ensureMapped(ctx, pos)
		if err != nil {
			return err
		}
		// Run to the end of the current translation granule.
		granule := int64(BasePage)
		if huge {
			granule = HugePage
		}
		granEnd := (pos/granule + 1) * granule
		k := granEnd - pos
		if k > int64(len(rem)) {
			k = int64(len(rem))
		}
		if !m.devAccess(rem[:k], phys, gen, write) {
			continue // shot down since resolution: re-fault this granule
		}
		m.translateLocked(ctx, pos, huge)
		m.chargeStream(ctx, phys, k, write)
		rem = rem[k:]
		pos += k
	}
	return nil
}

// Touch performs the cost accounting of Read/Write without moving bytes.
// Bandwidth-oriented experiments use it to keep host time reasonable.
func (m *Mapping) Touch(ctx *sim.Ctx, off, n int64, write bool) error {
	if off < 0 || off+n > m.length {
		return ErrOutOfRange
	}
	pos := off
	for n > 0 {
		phys, huge, _, err := m.ensureMapped(ctx, pos)
		if err != nil {
			return err
		}
		m.translateLocked(ctx, pos, huge)
		granule := int64(BasePage)
		if huge {
			granule = HugePage
		}
		granEnd := (pos/granule + 1) * granule
		k := granEnd - pos
		if k > n {
			k = n
		}
		m.chargeStream(ctx, phys, k, write)
		pos += k
		n -= k
	}
	return nil
}

func (m *Mapping) chargeStream(ctx *sim.Ctx, phys, n int64, write bool) {
	if write {
		ns := int64(float64(n) * m.model.CopyWriteNSPerByte)
		ctx.Advance(ns)
		ctx.Counters.CopyNS += ns
		ctx.Counters.PMWriteBytes += n
	} else {
		ns := int64(float64(n) * m.model.CopyReadNSPerByte)
		ctx.Advance(ns)
		ctx.Counters.CopyNS += ns
		ctx.Counters.PMReadBytes += n
	}
	m.chargeBW(ctx, phys, n, write)
}

func (m *Mapping) chargeBW(ctx *sim.Ctx, phys, n int64, write bool) {
	// Share the device's aggregate bandwidth; reuse the device-side
	// bookkeeping by issuing a zero-copy transfer.
	if write {
		m.dev.TransferWrite(ctx, phys, n)
	} else {
		m.dev.TransferRead(ctx, phys, n)
	}
}

// Invalidate unmaps every page of the mapping (a page-table shootdown):
// subsequent accesses re-fault and the handler resolves them against the
// file's current layout. WineFS's reactive rewriter calls this after
// swapping a file's extents so stale translations never reach freed
// blocks. The TLB entries for this mapping die with the page tables (the
// whole-TLB flush is the conservative model of an invlpg storm).
func (m *Mapping) Invalidate() {
	m.mu.Lock()
	for i := range m.chunks {
		m.chunks[i] = chunk{}
	}
	m.shootGen.Add(1)
	m.mu.Unlock()
	// Drain: an access that resolved a translation before the generation
	// bump may still be moving bytes under the read side of shootMu. Do
	// not return (and let the caller free the displaced blocks) until
	// every such access has finished — the shootdown's IPI-acknowledgement
	// wait. Accesses that resolve after the bump re-fault and never see
	// the old physical blocks.
	m.shootMu.Lock()
	//lint:ignore SA2001 empty critical section is the drain barrier
	m.shootMu.Unlock()
	m.as.FlushTLB()
}

// Prefault touches every page of the mapping once (read access pattern),
// taking all faults up front — the paper's §2.4 pre-faulted configuration.
func (m *Mapping) Prefault(ctx *sim.Ctx) error {
	for off := int64(0); off < m.length; off += BasePage {
		if _, _, _, err := m.ensureMapped(ctx, off); err != nil {
			return err
		}
	}
	return nil
}

// Counters is a convenience accessor for tests.
func (m *Mapping) Counters(ctx *sim.Ctx) *perf.Counters { return ctx.Counters }
