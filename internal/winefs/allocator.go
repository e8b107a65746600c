package winefs

import (
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// group is one per-CPU allocation group (Figure 5): a FIFO list of free
// aligned 2MiB extents and a pool of free unaligned holes, plus the CPU's
// inode free list. DRAM-only; rebuilt at mount. The hole index is the
// shared alloc.Pool; what is the group's own is policy — the FIFO,
// best-fit-then-largest, promote-on-merge and the defrag hold.
type group struct {
	cpu int
	mu  sync.Mutex
	res sim.Resource

	// noPromote disables merging holes back into aligned extents
	// (alignment ablation).
	noPromote bool

	// aligned is the FIFO of free hugepage extents: allocation removes
	// from the head, frees append at the tail (§3.6, "Aligned extent pool").
	aligned []int64
	// holes is the unaligned extent pool (§3.6), mutated under g.mu.
	holes *alloc.Pool
	// holeBlocks publishes holes.FreeBlocks() so the cross-CPU steal scan
	// (mostHoles) can read every group's count without taking every
	// group's mutex; every mutation of holes re-publishes it (publishLocked)
	// before g.mu is released.
	holeBlocks atomic.Int64

	inodeFree []int64 // free inode slots in this CPU's table

	// holdBase, when >= 0, marks the hugepage chunk
	// [holdBase, holdBase+BlocksPerHuge) as under online-defrag
	// reclamation (§3.5): its free sub-ranges live in holdParts instead
	// of the pools, so foreground allocation cannot hand them out while
	// the defragmenter migrates the chunk's remaining live blocks, and
	// blocks freed inside the chunk (the migrations' displaced extents)
	// are diverted straight to holdParts. Audit checks holdParts stay
	// disjoint from both pools and still count in the space tiling.
	holdBase  int64
	holdParts []alloc.Extent
}

func newGroup(cpu int) *group {
	return &group{cpu: cpu, holes: alloc.NewPool(), holdBase: -1}
}

func (g *group) publishLocked() { g.holeBlocks.Store(g.holes.FreeBlocks()) }

// freeBlocks returns the group's total free block count.
func (g *group) freeBlocks() int64 {
	return int64(len(g.aligned))*BlocksPerHuge + g.holeBlocks.Load()
}

// addHoleLocked inserts a free range, merging with neighbours and then
// promoting any fully covered aligned hugepage chunks into the aligned
// pool (§3.6, "Unaligned extent pool": "if the extents can be merged into
// an aligned extent, it is merged and tracked in the aligned extent pool").
// Invariant: no hole ever fully contains an aligned hugepage chunk.
func (g *group) addHoleLocked(start, length int64) {
	m := g.holes.Add(start, length)
	first := (m.Start + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	last := m.End() / BlocksPerHuge * BlocksPerHuge
	if !g.noPromote && first < last {
		g.holes.TakeAt(first, last-first)
		for b := first; b < last; b += BlocksPerHuge {
			g.aligned = append(g.aligned, b) // tail of the FIFO
		}
	}
	g.publishLocked()
}

// takeAlignedLocked pops the FIFO head, or returns false.
func (g *group) takeAlignedLocked() (int64, bool) {
	if len(g.aligned) == 0 {
		return 0, false
	}
	b := g.aligned[0]
	g.aligned = g.aligned[1:]
	return b, true
}

// allocator is WineFS's alignment-aware allocator (§3.4). The partition is
// split into per-CPU groups; requests are decomposed into hugepage-sized
// pieces served from aligned pools and a remainder served from holes.
type allocator struct {
	fs     *FS
	groups []*group
	// noAlignment (ablation) serves everything from holes and never
	// promotes free space back to the aligned pool.
	noAlignment bool
}

func newAllocator(fs *FS) *allocator {
	a := &allocator{fs: fs}
	for c := 0; c < fs.g.cpus; c++ {
		a.groups = append(a.groups, newGroup(c))
	}
	return a
}

// initEmpty fills every group with its whole (hugepage-aligned) pool, as
// after mkfs.
func (a *allocator) initEmpty() {
	for c, g := range a.groups {
		g.noPromote = a.noAlignment
		start, end := a.fs.g.poolRange(c)
		if a.noAlignment {
			g.addHoleLocked(start, end-start)
			continue
		}
		for b := start; b < end; b += BlocksPerHuge {
			g.aligned = append(g.aligned, b)
		}
	}
}

// allocCost is the virtual-time cost of one allocator invocation (DRAM
// tree/list manipulation).
const allocCost = 120

// mostAligned returns the group with the most free aligned extents,
// excluding `except` (§3.4: cross-CPU policy).
func (a *allocator) mostAligned(except int) *group {
	var best *group
	bestN := 0
	for _, g := range a.groups {
		if g.cpu == except {
			continue
		}
		g.mu.Lock()
		n := len(g.aligned)
		g.mu.Unlock()
		if n > bestN {
			best, bestN = g, n
		}
	}
	return best
}

// mostHoles returns the group with the most free unaligned blocks,
// excluding `except`.
func (a *allocator) mostHoles(except int) *group {
	var best *group
	var bestN int64
	for _, g := range a.groups {
		if g.cpu == except {
			continue
		}
		n := g.holeBlocks.Load()
		if n > bestN {
			best, bestN = g, n
		}
	}
	return best
}

// allocAligned obtains one aligned hugepage extent: local pool first, then
// the remote pool with the most aligned extents, then — only if no aligned
// extent exists anywhere — hole space.
func (a *allocator) allocAligned(ctx *sim.Ctx, cpu int) (int64, bool) {
	g := a.groups[cpu]
	g.mu.Lock()
	b, ok := g.takeAlignedLocked()
	g.mu.Unlock()
	ctx.Advance(allocCost)
	if ok {
		return b, true
	}
	if rg := a.mostAligned(cpu); rg != nil {
		rg.mu.Lock()
		b, ok = rg.takeAlignedLocked()
		rg.mu.Unlock()
		if ok {
			ctx.Counters.AllocSteals++
			return b, true
		}
	}
	return 0, false
}

// takeHoles gathers up to `need` blocks of hole space, possibly as
// several extents: local holes first, then the remote pools in order of
// most hole space; within a group, the smallest adequate hole (lowest
// address on ties) or, when none fits, the largest one whole. It appends
// what it got to out and reports how much is still missing.
//
// Like every allocation below, it appends to a caller-owned slice: an
// operation passes its transaction's took list (mtx), so the hot paths
// allocate no result slices and an abort knows what to give back; nil asks
// for a fresh slice.
func (a *allocator) takeHoles(ctx *sim.Ctx, cpu int, need int64, out []alloc.Extent) ([]alloc.Extent, int64) {
	out, need = a.groups[cpu].takeHoles(ctx, need, out, false)
	for need > 0 {
		rg := a.mostHoles(cpu)
		if rg == nil || rg.holeBlocks.Load() == 0 {
			break
		}
		out, need = rg.takeHoles(ctx, need, out, true)
	}
	return out, need
}

// takeHoles serves takeHoles from one group until the need is met or the
// group has no hole left. A group whose published hole count is 0 is not
// probed and not charged, as mostHoles reads it: frees go back to the group
// that owns the block (§3.4), so one thread's own group drains while the
// others fill, and it finds its group empty on every allocation until a
// free of its own blocks returns.
func (g *group) takeHoles(ctx *sim.Ctx, need int64, out []alloc.Extent, steal bool) ([]alloc.Extent, int64) {
	for need > 0 && g.holeBlocks.Load() > 0 {
		g.mu.Lock()
		e, ok := g.holes.TakeBestFit(need)
		if !ok {
			e, ok = g.holes.TakeLargest()
		}
		g.publishLocked()
		g.mu.Unlock()
		ctx.Advance(allocCost)
		if !ok {
			break
		}
		out = append(out, e)
		need -= e.Len
		if steal {
			ctx.Counters.AllocSteals++
		}
	}
	return out, need
}

// freeFrom rolls a failed allocation back: everything it appended to out
// past n0 returns to the pools.
func (a *allocator) freeFrom(ctx *sim.Ctx, out []alloc.Extent, n0 int) []alloc.Extent {
	for _, e := range out[n0:] {
		a.free(ctx, e)
	}
	return out[:n0]
}

// allocSmallTo obtains `need` blocks of unaligned space: hole space first,
// finally by breaking an aligned extent (counted as an AllocSplit). It
// appends to out (unchanged on failure).
func (a *allocator) allocSmallTo(ctx *sim.Ctx, cpu int, need int64, out []alloc.Extent) ([]alloc.Extent, bool) {
	n0 := len(out)
	out, remaining := a.takeHoles(ctx, cpu, need, out)
	// Last resort: break an aligned extent; the remainder becomes a hole.
	for remaining > 0 {
		b, ok := a.allocAligned(ctx, cpu)
		if !ok {
			return a.freeFrom(ctx, out, n0), false
		}
		ctx.Counters.AllocSplits++
		take := min(remaining, BlocksPerHuge)
		out = append(out, alloc.Extent{Start: b, Len: take})
		a.returnSlack(b, take)
		remaining -= take
	}
	return out, true
}

// returnSlack gives the unused tail of the aligned extent at b, of which
// the caller keeps `take` blocks, back to its group as a hole.
func (a *allocator) returnSlack(b, take int64) {
	if take < BlocksPerHuge {
		og := a.groups[a.fs.g.cpuOfBlock(b)]
		og.mu.Lock()
		og.addHoleLocked(b+take, BlocksPerHuge-take)
		og.mu.Unlock()
	}
}

// allocHoles is allocSmallTo restricted to hole space (no aligned-extent
// splitting): the online defragmenter migrates displaced blocks into
// existing holes only — breaking an aligned extent to vacate another
// would churn forever at net-zero recovery.
func (a *allocator) allocHoles(ctx *sim.Ctx, cpu int, need int64) ([]alloc.Extent, bool) {
	out, remaining := a.takeHoles(ctx, cpu, need, nil)
	if remaining > 0 {
		a.freeFrom(ctx, out, 0)
		return nil, false
	}
	return coalesceFrom(out, 0), true
}

// alloc satisfies a request of `blocks` blocks (§3.4, "Allocation"):
// the request is split into hugepage-sized pieces (served aligned) and a
// remainder (served from holes). When wantAligned is set — large requests
// or files carrying the alignment xattr — the remainder is rounded up to a
// full aligned extent so the file stays hugepage-mappable.
func (a *allocator) alloc(ctx *sim.Ctx, cpu int, blocks int64, wantAligned bool) ([]alloc.Extent, error) {
	return a.allocTo(ctx, cpu, blocks, wantAligned, nil)
}

// allocTo is alloc appending to out (unchanged on failure, which is
// always vfs.ErrNoSpace).
func (a *allocator) allocTo(ctx *sim.Ctx, cpu int, blocks int64, wantAligned bool, out []alloc.Extent) ([]alloc.Extent, error) {
	if blocks <= 0 {
		return out, nil
	}
	n0 := len(out)
	var got int64 // blocks appended so far
	hugePieces := blocks / BlocksPerHuge
	rem := blocks % BlocksPerHuge
	if wantAligned && rem > 0 {
		// Keep the file's layout hugepage-pure: allocate a full extent for
		// the tail as well. The file keeps only `rem` blocks of it; the
		// slack returns to the hole pool immediately.
		hugePieces++
		rem = 0
	}
	for i := int64(0); i < hugePieces; i++ {
		b, ok := a.allocAligned(ctx, cpu)
		if !ok {
			// Aligned space exhausted: hole space serves all of the rest.
			rem = blocks - got
			break
		}
		take := min(BlocksPerHuge, blocks-got)
		out = append(out, alloc.Extent{Start: b, Len: take})
		got += take
		a.returnSlack(b, take) // of the rounded-up tail extent
	}
	if rem > 0 {
		var ok bool
		if out, ok = a.allocSmallTo(ctx, cpu, rem, out); !ok {
			return a.freeFrom(ctx, out, n0), vfs.ErrNoSpace
		}
	}
	return coalesceFrom(out, n0), nil
}

// coalesceFrom merges physically adjacent extents of ex[n0:] in allocation
// order, in place.
func coalesceFrom(ex []alloc.Extent, n0 int) []alloc.Extent {
	if len(ex)-n0 < 2 {
		return ex
	}
	out := ex[:n0+1]
	for _, e := range ex[n0+1:] {
		last := &out[len(out)-1]
		if last.End() == e.Start {
			last.Len += e.Len
		} else {
			out = append(out, e)
		}
	}
	return out
}

// free returns an extent to the pool of the CPU it was allocated from
// (§3.4: "when the allocated extent is freed, it is inserted back into the
// free-space of the original data pool"), merging and promoting to the
// aligned pool where possible.
func (a *allocator) free(ctx *sim.Ctx, e alloc.Extent) {
	if e.Len <= 0 {
		return
	}
	// Slow-tier blocks go back to the tier pool, not the PM groups (this
	// single routing point covers every free path: unlink, truncate, CoW
	// displacement, replaceRange, rollbacks).
	if t := a.fs.tier; t != nil && e.Start >= t.base {
		t.pool.Free(e.Start, e.Len)
		ctx.Advance(allocCost)
		t.dev.DiscardRange((e.Start-t.base)*BlockSize, e.Len*BlockSize)
		return
	}
	// An extent may span multiple CPU pools (cross-CPU steal then merge);
	// split along pool boundaries.
	for e.Len > 0 {
		cpu := a.fs.g.cpuOfBlock(e.Start)
		_, poolEnd := a.fs.g.poolRange(cpu)
		take := e.Len
		if e.Start+take > poolEnd {
			take = poolEnd - e.Start
		}
		g := a.groups[cpu]
		g.mu.Lock()
		g.freeRangeLocked(e.Start, take)
		g.mu.Unlock()
		ctx.Advance(allocCost)
		a.fs.dev.DiscardRange(e.StartByte(), take*BlockSize)
		e.Start += take
		e.Len -= take
	}
}

// freeExtents snapshots the global free-space extent list.
func (a *allocator) freeExtents() []alloc.Extent {
	var out []alloc.Extent
	for _, g := range a.groups {
		g.mu.Lock()
		for _, b := range g.aligned {
			out = append(out, alloc.Extent{Start: b, Len: BlocksPerHuge})
		}
		out = append(out, g.holes.Extents()...)
		g.mu.Unlock()
	}
	return alloc.Merge(out)
}

// stats returns total and aligned free counts.
func (a *allocator) stats() (freeBlocks, alignedExtents int64) {
	for _, g := range a.groups {
		g.mu.Lock()
		freeBlocks += g.freeBlocks()
		alignedExtents += int64(len(g.aligned))
		g.mu.Unlock()
	}
	return
}

// markUsed removes a specific range from the free pools during recovery
// rebuild. The range must currently be free. Used-block reconstruction
// feeds file extents back in via this.
func (a *allocator) markUsed(start, length int64) {
	// Slow-tier extents replay into the tier pool.
	if t := a.fs.tier; t != nil && start >= t.base {
		t.pool.MarkUsed(start, length)
		return
	}
	for length > 0 {
		cpu := a.fs.g.cpuOfBlock(start)
		_, poolEnd := a.fs.g.poolRange(cpu)
		take := length
		if start+take > poolEnd {
			take = poolEnd - start
		}
		g := a.groups[cpu]
		g.mu.Lock()
		g.carveLocked(start, take)
		g.mu.Unlock()
		start += take
		length -= take
	}
}

// carveLocked removes [start, start+length) from this group's free space.
func (g *group) carveLocked(start, length int64) {
	end := start + length
	// From aligned extents overlapping the range: the uncovered parts of a
	// partly covered chunk (an empty part is ignored) become holes as they
	// are cut — Insert, not Add: a piece is not merged into a hole of the
	// neighbouring chunk, which is how a scan rebuild has always cut them,
	// and best-fit placement after a crash mount depends on it.
	keep := g.aligned[:0]
	for _, b := range g.aligned {
		if b+BlocksPerHuge <= start || b >= end {
			keep = append(keep, b)
			continue
		}
		g.holes.Insert(b, start-b)
		g.holes.Insert(end, b+BlocksPerHuge-end)
	}
	g.aligned = keep
	g.holes.Carve(start, length)
	g.publishLocked()
}

// freeRangeLocked is the hold-aware form of addHoleLocked: the part of
// the range inside a held chunk is diverted to holdParts (it must not
// become allocatable while the defragmenter reclaims the chunk); the
// rest enters the pools normally.
func (g *group) freeRangeLocked(start, length int64) {
	if g.holdBase >= 0 {
		hb, he := g.holdBase, g.holdBase+BlocksPerHuge
		if start < he && start+length > hb {
			if start < hb {
				g.addHoleLocked(start, hb-start)
			}
			if start+length > he {
				g.addHoleLocked(he, start+length-he)
			}
			s, e := max(start, hb), min(start+length, he)
			g.holdParts = append(g.holdParts, alloc.Extent{Start: s, Len: e - s})
			return
		}
	}
	g.addHoleLocked(start, length)
}

// holdChunkLocked begins reclaiming the hugepage chunk at base: every
// free sub-range inside it moves from the hole pool into holdParts (a
// hole straddling the chunk edge is split). The chunk cannot be in the
// aligned pool — a fully free chunk would have been promoted — so only
// holes are carved. Returns the number of blocks captured.
func (g *group) holdChunkLocked(base int64) int64 {
	g.holdBase = base
	g.holdParts = g.holes.Carve(base, BlocksPerHuge)
	g.publishLocked()
	return alloc.TotalBlocks(g.holdParts)
}

// releaseHoldLocked ends the reclamation: held ranges return to the
// pools through the normal merge path, so a fully reclaimed chunk
// promotes itself into the aligned FIFO. Reports whether the whole
// chunk came back free (the pass re-formed a 2MiB extent).
func (g *group) releaseHoldLocked() bool {
	parts := g.holdParts
	total := alloc.TotalBlocks(parts)
	g.holdParts = nil
	g.holdBase = -1
	for _, p := range parts {
		g.addHoleLocked(p.Start, p.Len)
	}
	return total == BlocksPerHuge
}
