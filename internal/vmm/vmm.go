// Package vmm is the zero-copy memory-mapping subsystem: it turns a
// vfs.File into a window of directly addressable persistent memory, the
// DAX mmap path of the paper (§2.2). A mapping is backed by internal/mmu
// page tables — 2MiB hugepages wherever the backing extent satisfies
// HugeEligible, 4KiB base pages otherwise — so applications pay
// fault/TLB/page-walk/LLC costs per access instead of a syscall plus a
// kernel copy per read/write.
//
// The file system under the mapping only has to implement vfs.Mapper
// (winefs and every fsbase-derived FS do); remote mounts don't, and
// Map reports vfs.ErrNotSupported for them. Modes follow POSIX mmap:
// read-only, shared (stores go straight to PM; Msync makes them
// durable), and private copy-on-write (first store copies the page to a
// DRAM shadow; the file is never modified). Files larger than the
// address budget are mapped through a sliding 2MiB-aligned window.
package vmm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Typed mapping errors.
var (
	// ErrReadOnlyMapping is the SIGSEGV analogue: a store through a
	// mapping created with ModeReadOnly.
	ErrReadOnlyMapping = errors.New("vmm: store to read-only mapping (SIGSEGV)")
	// ErrClosed: access through a mapping after Close (use-after-munmap).
	ErrClosed = errors.New("vmm: mapping closed (use after munmap)")
)

// Mode selects the POSIX mapping semantics.
type Mode int

const (
	// ModeReadOnly: PROT_READ. Stores return ErrReadOnlyMapping.
	ModeReadOnly Mode = iota
	// ModeShared: MAP_SHARED. Stores go directly to the file's PM pages;
	// Msync (or the Sync policy) makes them durable.
	ModeShared
	// ModePrivate: MAP_PRIVATE. The first store to a page copies it to a
	// DRAM shadow (a CoW break); the backing file is never modified and
	// Msync is a no-op on private dirty pages.
	ModePrivate
)

// SyncPolicy says when stores through a shared mapping become durable.
type SyncPolicy int

const (
	// SyncLazy: only explicit Msync/Close flush (MAP_SHARED + msync).
	SyncLazy SyncPolicy = iota
	// SyncImmediate: every store is flushed to PM as it lands (the
	// eADR/clwb-per-store discipline); Msync then has nothing to do.
	SyncImmediate
	// SyncPeriodic: an implicit msync of all dirty pages fires every
	// SyncEveryBytes of stores (a background flusher).
	SyncPeriodic
)

// DefaultAddressBudget bounds how much of a file is mapped at once when
// MapFullFile is unset; larger files slide a window (64MiB keeps page
// tables and TLB pressure bounded the way a 47-bit VA budget would).
const DefaultAddressBudget = 64 << 20

// SyncEveryBytes is the SyncPeriodic flush threshold.
const SyncEveryBytes = 1 << 20

// Config tunes a mapping.
type Config struct {
	// Mode selects read-only / shared / private semantics.
	Mode Mode
	// Sync is the durability policy for ModeShared stores.
	Sync SyncPolicy
	// MapFullFile maps the whole file in one window regardless of
	// AddressBudget (LMDB-style: one contiguous map, no remaps).
	MapFullFile bool
	// Preload prefaults every page of the window at map time instead of
	// taking demand faults on first touch.
	Preload bool
	// AddressBudget caps the window size in bytes (rounded up to 2MiB);
	// zero means DefaultAddressBudget.
	AddressBudget int64
}

// Mapping is a live memory mapping over a file. All methods are safe for
// concurrent use by multiple sim threads.
type Mapping struct {
	f   vfs.File
	b   vfs.Mapper
	cfg Config
	// length is the mapped span of the file, fixed at Map time.
	length int64

	// mu serialises changes of window: mapping the first one, sliding,
	// and Close. Accesses load win without it; nil means closed.
	mu  sync.Mutex
	win atomic.Pointer[window]

	// dirtyMu guards dirty and unsynced.
	dirtyMu sync.Mutex
	// dirty has bit pg set while file page pg holds a store not yet
	// msynced.
	dirty []uint64
	// unsynced counts ModeShared store bytes since the last durability
	// point (drives SyncPeriodic).
	unsynced int64

	// privMu guards priv: file page index -> DRAM shadow (ModePrivate).
	privMu sync.Mutex
	priv   map[int64][]byte

	// statMu guards chunkKind: file 2MiB-chunk index -> last fault kind
	// (kindBase/kindHuge), for promotion accounting and coverage.
	statMu    sync.Mutex
	chunkKind map[int64]uint8
}

const (
	kindBase = 1
	kindHuge = 2
)

// window is one mapped slice of the file: [base, base+m.Len()).
type window struct {
	base int64 // file offset of the window start, 2MiB-aligned
	m    *mmu.Mapping
}

func (w *window) covers(off int64) bool { return off >= w.base && off < w.base+w.m.Len() }

// Map establishes a mapping over the first length bytes of f (length<=0
// maps the current size). Whether f can be mapped, and over how much,
// is vfs.MapSpan's decision, the same one File.Mmap takes.
func Map(ctx *sim.Ctx, f vfs.File, length int64, cfg Config) (*Mapping, error) {
	b, length, err := vfs.MapSpan(f, length)
	if err != nil {
		return nil, err
	}
	if cfg.AddressBudget <= 0 {
		cfg.AddressBudget = DefaultAddressBudget
	}
	// Round the budget up to a hugepage so window bases stay 2MiB-aligned
	// (HugeEligible needs file-offset alignment to hold through windows).
	cfg.AddressBudget = alignUp(cfg.AddressBudget, mmu.HugePage)
	ctx.Syscall(b.MapSyscallNS())
	ctx.Counters.VMMMaps++
	v := &Mapping{
		f:         f,
		b:         b,
		cfg:       cfg,
		length:    length,
		dirty:     make([]uint64, (alignUp(length, mmu.BasePage)/mmu.BasePage+63)/64),
		priv:      make(map[int64][]byte),
		chunkKind: make(map[int64]uint8),
	}
	v.mu.Lock()
	_, err = v.mapWindow(ctx, 0)
	v.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return v, nil
}

// windowBounds computes the window [base, base+n) that serves an access
// at off into a mapping of the given length under budget bytes of
// address space. The base is always 2MiB-aligned (so hugepage
// eligibility is judged at the same file alignment in every window) and
// the window always contains off.
func windowBounds(off, length, budget int64, mapFull bool) (base, n int64) {
	if mapFull || length <= budget {
		return 0, length
	}
	base = off / mmu.HugePage * mmu.HugePage
	n = budget
	if base+n > length {
		n = length - base
	}
	return base, n
}

// windowFor returns the window covering off, sliding it if needed, or
// ErrClosed. An access whose window already covers it takes no lock.
func (v *Mapping) windowFor(ctx *sim.Ctx, off int64) (*window, error) {
	if w := v.win.Load(); w != nil && w.covers(off) {
		return w, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.win.Load()
	if old == nil {
		return nil, ErrClosed
	}
	if old.covers(off) {
		return old, nil // another thread slid it here first
	}
	// Slide: munmap the old window (full shootdown) and map the new one —
	// one munmap plus one mmap worth of kernel entries.
	v.b.DetachMapping(old.m)
	old.m.Invalidate()
	ctx.Syscall(2 * v.b.MapSyscallNS())
	ctx.Counters.VMMWindowRemaps++
	return v.mapWindow(ctx, off)
}

// mapWindow maps the window covering off and publishes it. Caller holds
// v.mu, and the previous window, if any, is already unmapped.
func (v *Mapping) mapWindow(ctx *sim.Ctx, off int64) (*window, error) {
	base, n := windowBounds(off, v.length, v.cfg.AddressBudget, v.cfg.MapFullFile)
	w := &window{base: base, m: v.b.MapSpace().NewMapping(n, &offsetHandler{v: v, base: base})}
	// Register the promotion hook before the file system learns about the
	// mapping, so a layout improvement can never slip between attach and
	// hook: the rewriter/defragmenter notifies every attached mapping.
	w.m.SetPromoteHook(func(hctx *sim.Ctx) { v.Repromote(hctx) })
	v.b.AttachMapping(w.m)
	v.win.Store(w)
	if v.cfg.Preload {
		if err := w.m.Prefault(ctx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// offsetHandler adapts the file's mapping-relative fault handler to a
// window: mmu hands it window-relative page offsets, the file wants
// file offsets. It also enforces the SIGBUS rule — a fault past the
// file's current EOF is a typed error, never a stale extent — and keeps
// the per-chunk fault-kind history behind promotion accounting.
type offsetHandler struct {
	v    *Mapping
	base int64
}

func (h *offsetHandler) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	fileOff := h.base + pageOff
	// SIGBUS past EOF: mmap rounds the file out to a page boundary, any
	// access beyond that faults. Size() is re-read on every fault, so a
	// truncate under the mapping turns later faults into errors rather
	// than resurrecting freed extents.
	if eof := alignUp(h.v.f.Size(), mmu.BasePage); fileOff >= eof {
		return mmu.FaultResult{}, fmt.Errorf("vmm: fault at %d past eof: %w", fileOff, vfs.ErrMapFault)
	}
	res, err := h.v.b.Fault(ctx, fileOff)
	if err != nil {
		return res, err
	}
	ck := fileOff / mmu.HugePage
	h.v.statMu.Lock()
	prev := h.v.chunkKind[ck]
	if res.Huge {
		if prev == kindBase {
			ctx.Counters.VMMPromotions++
		}
		h.v.chunkKind[ck] = kindHuge
		ctx.Counters.VMMHugeFaults++
	} else {
		h.v.chunkKind[ck] = kindBase
		ctx.Counters.VMMBaseFaults++
	}
	h.v.statMu.Unlock()
	return res, nil
}

// Read copies len(p) bytes at off through the mapping into p, taking
// faults and paging costs as a load would.
func (v *Mapping) Read(ctx *sim.Ctx, p []byte, off int64) error {
	return v.access(ctx, p, off, false)
}

// Write stores p at off through the mapping. ModeReadOnly rejects it;
// ModePrivate breaks the page to a DRAM shadow; ModeShared stores to PM
// and tracks dirt for Msync.
func (v *Mapping) Write(ctx *sim.Ctx, p []byte, off int64) error {
	return v.access(ctx, p, off, true)
}

func (v *Mapping) access(ctx *sim.Ctx, p []byte, off int64, write bool) error {
	if write && v.cfg.Mode == ModeReadOnly {
		return ErrReadOnlyMapping
	}
	if off < 0 || off+int64(len(p)) > v.length {
		return mmu.ErrOutOfRange
	}
	for len(p) > 0 {
		w, err := v.windowFor(ctx, off)
		if err != nil {
			return err
		}
		n := w.base + w.m.Len() - off
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		seg := p[:n]
		if v.cfg.Mode == ModePrivate {
			err = v.accessPrivate(ctx, w, seg, off, write)
		} else if write {
			err = v.writeShared(ctx, w, seg, off)
		} else {
			err = w.m.Read(ctx, seg, off-w.base)
		}
		if err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

// writeShared stores seg at off through window w and records the dirty
// pages, then applies the Sync policy.
func (v *Mapping) writeShared(ctx *sim.Ctx, w *window, seg []byte, off int64) error {
	if err := w.m.Write(ctx, seg, off-w.base); err != nil {
		return err
	}
	n := int64(len(seg))
	due := false
	v.dirtyMu.Lock()
	v.markDirtyLocked(off, n)
	if v.cfg.Sync == SyncPeriodic {
		v.unsynced += n
		if due = v.unsynced >= SyncEveryBytes; due {
			v.unsynced = 0
		}
	}
	v.dirtyMu.Unlock()
	switch {
	case v.cfg.Sync == SyncImmediate:
		// clwb-as-you-go: flush exactly the stored range, no kernel entry.
		return v.msync(ctx, off, n, false)
	case due:
		return v.msync(ctx, 0, v.length, false)
	}
	return nil
}

// markDirtyLocked marks the pages of [off, off+n) dirty. Caller holds
// v.dirtyMu.
func (v *Mapping) markDirtyLocked(off, n int64) {
	for pg := off / mmu.BasePage; pg*mmu.BasePage < off+n; pg++ {
		v.dirty[pg>>6] |= 1 << (pg & 63)
	}
}

// accessPrivate serves a read or write in copy-on-write mode: pages with
// a DRAM shadow are served from DRAM; a store to an unshadowed page
// first copies it from the file (the CoW break), then lands in DRAM.
func (v *Mapping) accessPrivate(ctx *sim.Ctx, w *window, p []byte, off int64, write bool) error {
	for len(p) > 0 {
		pg := off / mmu.BasePage
		pgOff := off - pg*mmu.BasePage
		n := mmu.BasePage - pgOff
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		v.privMu.Lock()
		shadow := v.priv[pg]
		v.privMu.Unlock()
		if shadow == nil && write {
			// CoW break: fault the file page in and copy it to DRAM.
			shadow = make([]byte, mmu.BasePage)
			pageStart := pg * mmu.BasePage
			pn := int64(mmu.BasePage)
			if pageStart+pn > v.length {
				pn = v.length - pageStart
			}
			if err := w.m.Read(ctx, shadow[:pn], pageStart-w.base); err != nil {
				return err
			}
			dramCost(ctx, mmu.BasePage)
			ctx.Counters.VMMCowBreaks++
			v.privMu.Lock()
			if cur := v.priv[pg]; cur != nil {
				shadow = cur // lost the race; use the winner's copy
			} else {
				v.priv[pg] = shadow
			}
			v.privMu.Unlock()
		}
		if shadow != nil {
			dramCost(ctx, n)
			if write {
				copy(shadow[pgOff:], p[:n])
			} else {
				copy(p[:n], shadow[pgOff:])
			}
		} else {
			// Clean read: straight through the file mapping.
			if err := w.m.Read(ctx, p[:n], off-w.base); err != nil {
				return err
			}
		}
		p = p[n:]
		off += n
	}
	return nil
}

// dramCost charges a DRAM access for n bytes of shadow-page traffic.
func dramCost(ctx *sim.Ctx, n int64) {
	// ~60ns first-touch latency amortised per call plus DRAM bandwidth
	// (~40GB/s -> 0.025ns/B), mirroring the page-cache hit pricing.
	ctx.Advance(60 + n/40)
}

// Touch charges the paging costs of accessing [off, off+n) without
// moving bytes — the bulk-sweep primitive benches use. Writes through a
// private mapping are not modelled here (Touch is cost accounting only).
func (v *Mapping) Touch(ctx *sim.Ctx, off, n int64, write bool) error {
	if write && v.cfg.Mode == ModeReadOnly {
		return ErrReadOnlyMapping
	}
	if off < 0 || off+n > v.length {
		return mmu.ErrOutOfRange
	}
	for n > 0 {
		w, err := v.windowFor(ctx, off)
		if err != nil {
			return err
		}
		seg := w.base + w.m.Len() - off
		if seg > n {
			seg = n
		}
		if err := w.m.Touch(ctx, off-w.base, seg, write); err != nil {
			return err
		}
		if write && v.cfg.Mode == ModeShared {
			v.dirtyMu.Lock()
			v.markDirtyLocked(off, seg)
			v.dirtyMu.Unlock()
		}
		off += seg
		n -= seg
	}
	return nil
}

// Msync makes stores to [off, off+n) durable (n<0 syncs the whole
// mapping). Shared mappings flush their dirty pages through the file
// system's durability rules; private dirty pages are anonymous DRAM and
// are never written back (POSIX MAP_PRIVATE).
func (v *Mapping) Msync(ctx *sim.Ctx, off, n int64) error {
	if v.win.Load() == nil {
		return ErrClosed
	}
	if n < 0 {
		off, n = 0, v.length
	}
	return v.msync(ctx, off, n, true)
}

// msync flushes the dirty pages intersecting [off, off+n). syscall says
// whether to charge a kernel entry (explicit msync does; the
// SyncImmediate store-side flush doesn't).
func (v *Mapping) msync(ctx *sim.Ctx, off, n int64, syscall bool) error {
	if syscall {
		ctx.Syscall(v.b.MapSyscallNS())
	}
	ctx.Counters.VMMMsyncs++
	if v.cfg.Mode != ModeShared {
		return nil
	}
	// Collect and clear the dirty pages in range as contiguous runs,
	// a bitmap word at a time. A range reaching outside the mapping is
	// clipped to it.
	start := max(off, 0) / mmu.BasePage
	end := min((off+n+mmu.BasePage-1)/mmu.BasePage, int64(len(v.dirty))*64)
	var runs [][2]int64
	var runStart, runLen int64 = -1, 0
	v.dirtyMu.Lock()
	for wi := start >> 6; wi<<6 < end; wi++ {
		mask := ^uint64(0)
		if wi == start>>6 {
			mask <<= start & 63
		}
		if hi := end - wi<<6; hi < 64 {
			mask &= 1<<hi - 1
		}
		set := v.dirty[wi] & mask
		v.dirty[wi] &^= set
		for ; set != 0; set &= set - 1 {
			pg := wi<<6 + int64(bits.TrailingZeros64(set))
			if runStart >= 0 && pg == runStart+runLen {
				runLen++
				continue
			}
			if runStart >= 0 {
				runs = append(runs, [2]int64{runStart, runLen})
			}
			runStart, runLen = pg, 1
		}
	}
	if runStart >= 0 {
		runs = append(runs, [2]int64{runStart, runLen})
	}
	v.dirtyMu.Unlock()
	for _, r := range runs {
		rOff := r[0] * mmu.BasePage
		rN := r[1] * mmu.BasePage
		if rOff+rN > v.length {
			rN = v.length - rOff
		}
		if err := v.b.MsyncRange(ctx, rOff, rN); err != nil {
			return err
		}
		ctx.Counters.VMMMsyncBytes += rN
	}
	return nil
}

// Close unmaps: remaining shared dirt is flushed (so no acknowledged
// store is silently lost at munmap), translations are shot down, and
// the handle is detached from the file.
func (v *Mapping) Close(ctx *sim.Ctx) error {
	v.mu.Lock()
	w := v.win.Swap(nil)
	v.mu.Unlock()
	if w == nil {
		return ErrClosed
	}
	var err error
	if v.cfg.Mode == ModeShared {
		err = v.msync(ctx, 0, v.length, false)
	}
	v.b.DetachMapping(w.m)
	w.m.Invalidate()
	ctx.Syscall(v.b.MapSyscallNS())
	ctx.Counters.VMMUnmaps++
	return err
}

// MappedPages reports the live translations of the current window:
// resident 4KiB base pages and 2MiB hugepage chunks.
func (v *Mapping) MappedPages() (base, huge int) {
	w := v.win.Load()
	if w == nil {
		return 0, 0
	}
	return w.m.MappedPages()
}

// Repromote re-examines every 2MiB chunk this mapping has faulted with
// base pages and, where the backing file has since become
// hugepage-eligible, upgrades the per-chunk accounting and collapses the
// live window's translation to a hugepage. This closes the promotion
// gap: before, a chunk whose layout was fixed after mapping stayed on
// base pages — and FaultedChunks/vmm_promotions_total undercounted —
// until some later refault happened to hit it. The file system invokes
// it through the mmu promote hook after reactive rewrites and online
// defrag passes; callers may also invoke it directly. Costs accrue to
// ctx (the maintenance thread, not the foreground). Returns the number
// of chunks promoted; backings without vfs.HugeProber are a no-op.
func (v *Mapping) Repromote(ctx *sim.Ctx) int {
	prober, ok := v.b.(vfs.HugeProber)
	if !ok {
		return 0
	}
	w := v.win.Load()
	if w == nil {
		return 0
	}

	v.statMu.Lock()
	cand := make([]int64, 0, len(v.chunkKind))
	for ck, k := range v.chunkKind {
		if k == kindBase {
			cand = append(cand, ck)
		}
	}
	v.statMu.Unlock()
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })

	promoted := 0
	for _, ck := range cand {
		fileOff := ck * mmu.HugePage
		if fileOff+mmu.HugePage > v.length {
			continue
		}
		// The translation is installed inside the probe, under the file's
		// layout read lock: a concurrent truncate/rewrite cannot free the
		// probed blocks before the hugepage PMD is in place (layout
		// changes take the write lock and invalidate mappings first).
		eligible := prober.ProbeHuge(fileOff, func(phys int64) {
			if fileOff >= w.base && fileOff+mmu.HugePage <= w.base+w.m.Len() {
				w.m.PromoteChunk(ctx, fileOff-w.base, phys)
			}
		})
		if !eligible {
			continue
		}
		v.statMu.Lock()
		fresh := v.chunkKind[ck] == kindBase
		if fresh {
			v.chunkKind[ck] = kindHuge
		}
		v.statMu.Unlock()
		if fresh {
			promoted++
			ctx.Counters.VMMPromotions++
			ctx.Counters.DefragRepromotions++
		}
	}
	return promoted
}

// FaultedChunks reports, over the mapping's lifetime, how many distinct
// 2MiB file chunks have faulted and how many of them last faulted as a
// hugepage — the hugepage-coverage figure the paper's Figure 1 plots.
func (v *Mapping) FaultedChunks() (huge, total int) {
	v.statMu.Lock()
	defer v.statMu.Unlock()
	for _, k := range v.chunkKind {
		total++
		if k == kindHuge {
			huge++
		}
	}
	return huge, total
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }
