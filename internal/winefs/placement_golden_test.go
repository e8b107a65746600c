package winefs

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// placementCRC folds every placement decision of a trace into one number.
type placementCRC struct{ sum uint32 }

func (c *placementCRC) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		c.sum = crc32.Update(c.sum, crc32.IEEETable, b[:])
	}
}

func (c *placementCRC) extents(tag int64, ex []alloc.Extent) {
	c.add(tag, int64(len(ex)))
	for _, e := range ex {
		c.add(e.Start, e.Len)
	}
}

// TestAllocatorPlacementGolden pins *where* the allocators put things, not
// only that they stay consistent: a seeded trace of every allocator entry
// point (alloc, allocSmall, allocHoles, free — whole and partial —,
// markUsed, the defrag hold/release and a scan-style rebuild) over a
// 4-group allocator, and of
// Alloc/Free/MarkUsed over the slow pool, is folded into a CRC of every
// returned extent plus the final free-extent list. The constants were
// recorded before the hole trees and the slow pool's sorted slice were
// replaced by alloc.Pool; best-fit tie-breaks, FIFO order, steal order,
// promotion order and the slow tier's first-fit/gather order all feed the
// sum, so any index change that moves a single block fails here.
func TestAllocatorPlacementGolden(t *testing.T) {
	const steps = 24000
	for _, tc := range []struct {
		name        string
		noAlignment bool
		want        uint32
	}{
		{"aligned", false, goldenAligned},
		{"noAlignment", true, goldenNoAlignment},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := groupPlacementTrace(t, steps, tc.noAlignment)
			if got != tc.want {
				t.Fatalf("placement CRC = %#08x, want %#08x (allocator placement changed)", got, tc.want)
			}
		})
	}
	t.Run("slowPool", func(t *testing.T) {
		if got := slowPlacementTrace(steps); got != goldenSlowPool {
			t.Fatalf("placement CRC = %#08x, want %#08x (slow-pool placement changed)", got, goldenSlowPool)
		}
	})
}

const (
	goldenAligned     uint32 = 0xe8539625
	goldenNoAlignment uint32 = 0x80ed9195
	goldenSlowPool    uint32 = 0x242096ea
)

func groupPlacementTrace(t *testing.T, steps int, noAlignment bool) uint32 {
	ctx := sim.NewCtx(1, 0)
	fs, err := Mkfs(ctx, pmem.New(512<<20), Options{CPUs: 4, AblateAlignment: noAlignment})
	if err != nil {
		t.Fatal(err)
	}
	a := fs.alloc
	rng := rand.New(rand.NewSource(20210926))
	var crc placementCRC
	var out []alloc.Extent // outstanding grants
	var outBlocks int64
	total, _ := a.stats()
	grant := func(ex []alloc.Extent) {
		out = append(out, ex...)
		outBlocks += alloc.TotalBlocks(ex)
	}
	// Skew requests toward CPU 0 so its group drains first and the steal
	// paths (mostAligned, mostHoles) run.
	pickCPU := func() int {
		if rng.Intn(10) < 6 {
			return 0
		}
		return rng.Intn(4)
	}
	held := -1 // group with an active defrag hold
	releaseHold := func() {
		g := a.groups[held]
		g.mu.Lock()
		full := g.releaseHoldLocked()
		g.mu.Unlock()
		crc.add(6, int64(held), b2i(full))
		held = -1
	}
	for step := 0; step < steps; step++ {
		// Utilisation swings between ~30% and ~97% so the trace visits the
		// empty, fragmented and exhausted regimes.
		target := total * 30 / 100
		if (step/3000)%2 == 0 {
			target = total * 97 / 100
		}
		growing := outBlocks < target
		r := rng.Intn(100)
		switch {
		case growing && r < 30 || !growing && r < 8:
			ex, err := a.alloc(ctx, pickCPU(), int64(rng.Intn(1500))+1, rng.Intn(8) == 0)
			if err != nil {
				crc.add(-1)
				break
			}
			crc.extents(1, ex)
			grant(ex)
		case growing && r < 55 || !growing && r < 16:
			ex, ok := a.allocSmall(ctx, pickCPU(), int64(rng.Intn(300))+1)
			if !ok {
				crc.add(-2)
				break
			}
			crc.extents(2, ex)
			grant(ex)
		case growing && r < 65 || !growing && r < 20:
			ex, ok := a.allocHoles(ctx, pickCPU(), int64(rng.Intn(200))+1)
			if !ok {
				crc.add(-3)
				break
			}
			crc.extents(3, ex)
			grant(ex)
		case growing && r < 85 || !growing && r < 90:
			// Free grants, whole or a random sub-range (the partial frees are
			// what fragment the pools); a draining phase frees in batches so
			// it outruns the allocations still arriving.
			batch := 1
			if !growing {
				batch = 24
			}
			for ; batch > 0 && len(out) > 0; batch-- {
				i := rng.Intn(len(out))
				e := out[i]
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				lo, n := int64(0), e.Len
				if e.Len > 1 && rng.Intn(3) == 0 {
					lo = rng.Int63n(e.Len)
					n = rng.Int63n(e.Len-lo) + 1
				}
				if lo > 0 {
					out = append(out, alloc.Extent{Start: e.Start, Len: lo})
				}
				if lo+n < e.Len {
					out = append(out, alloc.Extent{Start: e.Start + lo + n, Len: e.Len - lo - n})
				}
				a.free(ctx, alloc.Extent{Start: e.Start + lo, Len: n})
				outBlocks -= n
			}
		case r < 94:
			// markUsed (recovery rebuild): claim part of a free extent.
			free := a.freeExtents()
			if len(free) == 0 {
				break
			}
			e := free[rng.Intn(len(free))]
			lo := rng.Int63n(e.Len)
			n := rng.Int63n(min64(e.Len-lo, 700)) + 1
			a.markUsed(e.Start+lo, n)
			crc.add(4, e.Start+lo, n)
			grant([]alloc.Extent{{Start: e.Start + lo, Len: n}})
		default:
			// Defrag hold: begin on a random chunk, or end the active one.
			if held >= 0 {
				releaseHold()
				break
			}
			c := rng.Intn(4)
			g := a.groups[c]
			lo, hi := fs.g.poolRange(c)
			base := lo + rng.Int63n((hi-lo)/BlocksPerHuge)*BlocksPerHuge
			g.mu.Lock()
			inFIFO := false
			for _, b := range g.aligned {
				inFIFO = inFIFO || b == base
			}
			if !inFIFO { // the defragmenter never holds a fully free chunk
				crc.add(5, base, g.holdChunkLocked(base))
				held = c
			}
			g.mu.Unlock()
		}
		if step%997 == 0 {
			crc.extents(7, a.freeExtents())
		}
		if step%6000 == 5900 {
			if held >= 0 {
				releaseHold()
			}
			// Crash-mount rebuild (rebuildFromScan): fresh groups, every
			// used extent carved back out. The free space is the same set
			// of blocks; how it is cut into holes is what placement sees.
			for c := range a.groups {
				a.groups[c] = newGroup(c)
			}
			a.initEmpty()
			for _, e := range out {
				a.markUsed(e.Start, e.Len)
			}
			crc.extents(9, a.freeExtents())
		}
	}
	if held >= 0 {
		releaseHold()
	}
	crc.extents(8, a.freeExtents())
	for _, g := range a.groups {
		g.mu.Lock()
		crc.add(int64(len(g.aligned)))
		crc.add(g.aligned...)
		g.mu.Unlock()
	}
	if ctx.Counters.AllocSteals == 0 || !noAlignment && ctx.Counters.AllocSplits == 0 {
		t.Fatalf("trace never stole (%d) or split (%d): it no longer covers those paths",
			ctx.Counters.AllocSteals, ctx.Counters.AllocSplits)
	}
	if free, _ := a.stats(); free+outBlocks != total {
		t.Fatalf("conservation: free=%d + outstanding=%d != %d", free, outBlocks, total)
	}
	return crc.sum
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func slowPlacementTrace(steps int) uint32 {
	const base, blocks = 1 << 20, 1 << 16
	p := tier.NewPool(base, blocks)
	rng := rand.New(rand.NewSource(20210926))
	var crc placementCRC
	var out []alloc.Extent
	for step := 0; step < steps; step++ {
		growing := p.FreeBlocks() > blocks/20
		if (step/3000)%2 == 1 {
			growing = p.FreeBlocks() > blocks*7/10
		}
		r := rng.Intn(100)
		switch {
		case growing && r < 60 || !growing && r < 15:
			ex := p.Alloc(int64(rng.Intn(600)) + 1)
			crc.extents(1, ex)
			out = append(out, ex...)
		case r < 92:
			if len(out) == 0 {
				break
			}
			i := rng.Intn(len(out))
			e := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			lo, n := int64(0), e.Len
			if e.Len > 1 && rng.Intn(3) > 0 {
				lo = rng.Int63n(e.Len)
				n = rng.Int63n(e.Len-lo) + 1
			}
			if lo > 0 {
				out = append(out, alloc.Extent{Start: e.Start, Len: lo})
			}
			if lo+n < e.Len {
				out = append(out, alloc.Extent{Start: e.Start + lo + n, Len: e.Len - lo - n})
			}
			p.Free(e.Start+lo, n)
		default:
			free := p.FreeExtents()
			if len(free) == 0 {
				break
			}
			e := free[rng.Intn(len(free))]
			lo := rng.Int63n(e.Len)
			n := rng.Int63n(min64(e.Len-lo, 300)) + 1
			p.MarkUsed(e.Start+lo, n)
			crc.add(2, e.Start+lo, n)
			out = append(out, alloc.Extent{Start: e.Start + lo, Len: n})
		}
		if step%997 == 0 {
			crc.extents(3, p.FreeExtents())
		}
		if step%6000 == 5900 {
			// Mount-time rebuild: a fresh pool, every used extent replayed.
			p = tier.NewPool(base, blocks)
			for _, e := range out {
				p.MarkUsed(e.Start, e.Len)
			}
		}
	}
	crc.extents(4, p.FreeExtents())
	crc.add(p.FreeBlocks())
	return crc.sum
}
