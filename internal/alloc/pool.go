package alloc

import (
	"fmt"

	"repro/internal/rbtree"
)

// Pool is the free-extent index with merge-on-free: the one mechanism
// under every allocator in the tree. Two red-black indexes: by start
// (merging, goal extension, first/next-fit) and by (size, start) (best-fit
// and largest, ties on the lowest start). Its users differ in policy only:
// a WineFS group (winefs/allocator.go) keeps an aligned FIFO beside one
// Pool of holes — best-fit then largest, promotion out of the range Add
// reports, the defrag hold over Carve; the slow tier (tier.Pool) is
// first-fit then gather-from-the-lowest; the six baselines
// (fsbase.LockedPool) mix goal extension, alignment, next-fit and
// best-fit. Not safe for concurrent use; callers lock.
type Pool struct {
	byStart *rbtree.Tree[int64, int64]
	bySize  *rbtree.Tree[sizeKey, struct{}]
	blocks  int64
}

type sizeKey struct {
	length int64
	start  int64
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		byStart: rbtree.New[int64, int64](func(a, b int64) bool { return a < b }),
		bySize: rbtree.New[sizeKey, struct{}](func(a, b sizeKey) bool {
			if a.length != b.length {
				return a.length < b.length
			}
			return a.start < b.start
		}),
	}
}

// FreeBlocks returns the total free block count.
func (p *Pool) FreeBlocks() int64 { return p.blocks }

func (p *Pool) insert(start, length int64) {
	p.byStart.Set(start, length)
	p.bySize.Set(sizeKey{length, start}, struct{}{})
	p.blocks += length
}

func (p *Pool) remove(start, length int64) {
	p.byStart.Delete(start)
	p.bySize.Delete(sizeKey{length, start})
	p.blocks -= length
}

// neighbours returns the free extents on either side of the range (Len 0
// where there is none). A range overlapping free space is a double free —
// it would shadow a by-start entry, strand a by-size one and inflate
// FreeBlocks — so it panics before anything is touched.
func (p *Pool) neighbours(start, length int64) (prev, next Extent) {
	ps, pl, _ := p.byStart.Floor(start)
	ns, nl, _ := p.byStart.Ceiling(start)
	if pl > 0 && ps+pl > start || nl > 0 && ns < start+length {
		panic(fmt.Sprintf("alloc: double free: [%d,%d) overlaps a free extent", start, start+length))
	}
	return Extent{Start: ps, Len: pl}, Extent{Start: ns, Len: nl}
}

// Add returns a free range to the pool, merging with adjacent extents, and
// reports the merged extent it is now part of (a caller with a promotion
// rule carves aligned chunks back out of it). Panics on a double free.
func (p *Pool) Add(start, length int64) Extent {
	if length <= 0 {
		return Extent{}
	}
	prev, next := p.neighbours(start, length)
	if prev.Len > 0 && prev.End() == start {
		p.remove(prev.Start, prev.Len)
		start, length = prev.Start, prev.Len+length
	}
	if next.Len > 0 && start+length == next.Start {
		p.remove(next.Start, next.Len)
		length += next.Len
	}
	p.insert(start, length)
	return Extent{Start: start, Len: length}
}

// Insert adds a free range as an extent of its own, NOT merged with
// adjacent ones: for restoring an index exactly as it was cut (a saved
// free list; the pieces a rebuild leaves of a partly used hugepage chunk).
// Later Adds merge with it normally. Panics on a double free.
func (p *Pool) Insert(start, length int64) {
	if length > 0 {
		p.neighbours(start, length)
		p.insert(start, length)
	}
}

// First returns the lowest-addressed free extent without removing it.
func (p *Pool) First() (Extent, bool) {
	s, l, ok := p.byStart.Min()
	return Extent{Start: s, Len: l}, ok
}

// TakeAt carves exactly [start, start+length) if it is entirely free
// (goal extension). Reports success.
func (p *Pool) TakeAt(start, length int64) bool {
	hs, hl, ok := p.byStart.Floor(start)
	if !ok || hs+hl < start+length {
		return false
	}
	p.remove(hs, hl)
	if hs < start {
		p.insert(hs, start-hs)
	}
	if hs+hl > start+length {
		p.insert(start+length, hs+hl-(start+length))
	}
	return true
}

// TakeBestFit carves `need` blocks from the smallest adequate extent.
func (p *Pool) TakeBestFit(need int64) (Extent, bool) {
	k, _, ok := p.bySize.Ceiling(sizeKey{need, 0})
	if !ok {
		return Extent{}, false
	}
	p.remove(k.start, k.length)
	if k.length > need {
		p.insert(k.start+need, k.length-need)
	}
	return Extent{Start: k.start, Len: need}, true
}

// TakeLargest removes and returns the largest extent whole.
func (p *Pool) TakeLargest() (Extent, bool) {
	k, _, ok := p.bySize.Max()
	if !ok {
		return Extent{}, false
	}
	p.remove(k.start, k.length)
	return Extent{Start: k.start, Len: k.length}, true
}

// TakeAligned carves `need` blocks starting at a hugepage-aligned block,
// searching adequate extents from smallest to largest. Used by allocators
// that make a best-effort alignment attempt (ext4 mballoc normalisation,
// NOVA's exact-multiple path).
func (p *Pool) TakeAligned(need int64) (Extent, bool) {
	var found *sizeKey
	p.bySize.AscendFrom(sizeKey{need, 0}, func(k sizeKey, _ struct{}) bool {
		first := (k.start + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
		if first+need <= k.start+k.length {
			kk := k
			found = &kk
			return false
		}
		return true
	})
	if found == nil {
		return Extent{}, false
	}
	first := (found.start + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	p.TakeAt(first, need)
	return Extent{Start: first, Len: need}, true
}

// TakeNextFit carves `need` blocks from the first adequate extent at or
// after block `from`, wrapping around once — the stream-allocation
// behaviour of aged contiguity-first allocators (successive allocations
// march across the partition, interleaving unrelated files: the
// fragmentation mechanism behind Figure 3's baseline curves).
func (p *Pool) TakeNextFit(from, need int64) (Extent, bool) {
	hit, found := int64(0), false
	scan := func(lo int64, wrapAt int64) bool {
		p.byStart.AscendFrom(lo, func(s, l int64) bool {
			if wrapAt >= 0 && s >= wrapAt {
				return false
			}
			if l >= need {
				hit, found = s, true
				return false
			}
			return true
		})
		return found
	}
	if !scan(from, -1) && !scan(0, from) {
		return Extent{}, false
	}
	p.TakeAt(hit, need)
	return Extent{Start: hit, Len: need}, true
}

// TakeAlignedInRange carves `need` blocks starting at a hugepage-aligned
// boundary within [lo, hi) — the locality-bounded alignment attempt of
// mballoc-style allocators, which search only a few block groups around
// the goal. This is why aged ext4-DAX "ends up using only 3k aligned
// extents" of the 12k available (§2.5): availability outside the searched
// window doesn't help.
func (p *Pool) TakeAlignedInRange(lo, hi, need int64) (Extent, bool) {
	var found *Extent
	start := lo
	if fs, _, ok := p.byStart.Floor(lo); ok {
		start = fs
	}
	p.byStart.AscendFrom(start, func(s, l int64) bool {
		if s >= hi {
			return false
		}
		first := s
		if first < lo {
			first = lo
		}
		first = (first + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
		if first < hi && first+need <= s+l {
			found = &Extent{Start: s, Len: l}
			return false
		}
		return true
	})
	if found == nil {
		return Extent{}, false
	}
	first := found.Start
	if first < lo {
		first = lo
	}
	first = (first + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
	p.TakeAt(first, need)
	return Extent{Start: first, Len: need}, true
}

// Carve removes [start, start+length) from the pool wherever it overlaps
// free extents (used-state reconstruction, the defrag hold) and appends
// the parts it removed to into, in address order: a caller that keeps
// into's storage carves without allocating.
func (p *Pool) Carve(start, length int64, into []Extent) []Extent {
	end := start + length
	from := start
	if fs, _, ok := p.byStart.Floor(start); ok {
		from = fs
	}
	first := len(into)
	p.byStart.AscendFrom(from, func(hs, hl int64) bool {
		if hs >= end {
			return false
		}
		if hs+hl > start {
			into = append(into, Extent{Start: hs, Len: hl})
		}
		return true
	})
	for i := first; i < len(into); i++ {
		lo, hi := into[i].Start, into[i].End()
		p.remove(lo, hi-lo)
		if lo < start {
			p.insert(lo, start-lo)
			lo = start
		}
		if hi > end {
			p.insert(end, hi-end)
			hi = end
		}
		into[i] = Extent{Start: lo, Len: hi - lo}
	}
	return into
}

// Extents snapshots the pool's free extents in address order.
func (p *Pool) Extents() []Extent {
	out := make([]Extent, 0, p.byStart.Len())
	p.Ascend(func(e Extent) { out = append(out, e) })
	return out
}

// Ascend calls fn on each free extent in address order, in place: a
// caller that only reads them walks the pool without a snapshot.
func (p *Pool) Ascend(fn func(Extent)) {
	p.byStart.Ascend(func(s, l int64) bool {
		fn(Extent{Start: s, Len: l})
		return true
	})
}

// Check verifies the two indexes and the cached count against each other:
// every extent non-empty, past its predecessor and in the by-size index,
// no stray by-size entries, FreeBlocks the true sum.
func (p *Pool) Check() error {
	var sum, prevEnd int64
	var err error
	p.byStart.Ascend(func(s, l int64) bool {
		if _, ok := p.bySize.Get(sizeKey{l, s}); !ok {
			err = fmt.Errorf("extent [%d,+%d) missing from by-size index", s, l)
		} else if l <= 0 || sum > 0 && s < prevEnd {
			err = fmt.Errorf("extent [%d,+%d) is empty or overlaps its predecessor (ends at %d)", s, l, prevEnd)
		}
		sum, prevEnd = sum+l, s+l
		return err == nil
	})
	if err == nil && p.bySize.Len() != p.byStart.Len() {
		err = fmt.Errorf("%d extents but %d by-size entries", p.byStart.Len(), p.bySize.Len())
	}
	if err == nil && sum != p.blocks {
		err = fmt.Errorf("cached free count %d but extents sum to %d", p.blocks, sum)
	}
	return err
}
