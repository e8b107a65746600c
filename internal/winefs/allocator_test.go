package winefs

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/sim"
)

// allocSmall is allocSmallTo into a fresh slice: the form the tests here
// and the placement golden trace were written against.
func (a *allocator) allocSmall(ctx *sim.Ctx, cpu int, need int64) ([]alloc.Extent, bool) {
	return a.allocSmallTo(ctx, cpu, need, nil)
}

// TestAllocatorInvariants drives the alignment-aware allocator with random
// mixed-size allocations and frees, and checks after every step:
//
//  1. conservation — free + outstanding == pool capacity;
//  2. no overlap — handed-out extents never intersect;
//  3. the hole invariant — no unaligned hole fully contains an aligned
//     hugepage chunk (such chunks must live in the aligned FIFO);
//  4. full restoration — freeing everything returns every group to a pure
//     aligned pool with zero holes.
func TestAllocatorInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(256 << 20)
		fs, err := Mkfs(ctx, dev, Options{CPUs: 2})
		if err != nil {
			return false
		}
		a := fs.alloc
		total, _ := a.stats()

		type grant struct{ ex []alloc.Extent }
		var outstanding []grant
		var outBlocks int64
		used := map[int64]bool{}

		check := func() bool {
			free, _ := a.stats()
			if free+outBlocks != total {
				t.Logf("conservation: free=%d out=%d total=%d", free, outBlocks, total)
				return false
			}
			for _, g := range a.groups {
				for _, h := range g.holes.Extents() {
					first := (h.Start + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
					if first+BlocksPerHuge <= h.End() {
						t.Log("hole invariant violated")
						return false
					}
				}
			}
			return true
		}

		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // allocate
				blocks := int64(op%2048) + 1
				cpu := int(op) % 2
				ex, err := a.alloc(ctx, cpu, blocks, op%16 == 0)
				if err != nil {
					continue
				}
				for _, e := range ex {
					for b := e.Start; b < e.End(); b++ {
						if used[b] {
							t.Logf("double allocation of block %d", b)
							return false
						}
						used[b] = true
					}
				}
				outstanding = append(outstanding, grant{ex})
				for _, e := range ex {
					outBlocks += e.Len
				}
			case 2: // free the oldest grant
				if len(outstanding) == 0 {
					continue
				}
				g := outstanding[0]
				outstanding = outstanding[1:]
				for _, e := range g.ex {
					a.free(ctx, e)
					outBlocks -= e.Len
					for b := e.Start; b < e.End(); b++ {
						delete(used, b)
					}
				}
			}
			if !check() {
				return false
			}
		}
		// Free everything: the aligned pools must fully regenerate.
		for _, g := range outstanding {
			for _, e := range g.ex {
				a.free(ctx, e)
			}
		}
		for _, g := range a.groups {
			if g.holeBlocks.Load() != 0 {
				t.Logf("residual holes: %d blocks", g.holeBlocks.Load())
				return false
			}
		}
		free, aligned := a.stats()
		return free == total && aligned*BlocksPerHuge == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorAlignedFIFO verifies §3.6's FIFO discipline: extents are
// taken from the head and freed ones appended at the tail.
func TestAllocatorAlignedFIFO(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(128 << 20)
	fs, _ := Mkfs(ctx, dev, Options{CPUs: 1})
	a := fs.alloc
	first, ok := a.allocAligned(ctx, 0)
	if !ok {
		t.Fatal("no aligned extent")
	}
	second, _ := a.allocAligned(ctx, 0)
	if second != first+BlocksPerHuge {
		t.Fatalf("head order wrong: %d then %d", first, second)
	}
	// Free the first: it must come back last, not immediately.
	a.free(ctx, alloc.Extent{Start: first, Len: BlocksPerHuge})
	third, _ := a.allocAligned(ctx, 0)
	if third == first {
		t.Fatal("freed extent reused immediately (LIFO, want FIFO)")
	}
}

// TestAllocatorDoubleFreePanics: the hole index is strict for WineFS too —
// freeing blocks that are already free (whole, partial or inside a larger
// hole) panics instead of silently inflating the free count.
func TestAllocatorDoubleFreePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		again alloc.Extent // relative to the first free's start
	}{
		{"exact repeat", alloc.Extent{Start: 0, Len: 40}},
		{"overlapping tail", alloc.Extent{Start: 30, Len: 40}},
		{"contained", alloc.Extent{Start: 10, Len: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			fs, err := Mkfs(ctx, pmem.New(128<<20), Options{CPUs: 2})
			if err != nil {
				t.Fatal(err)
			}
			a := fs.alloc
			ex, ok := a.allocSmall(ctx, 0, 100)
			if !ok || len(ex) != 1 {
				t.Fatalf("allocSmall = %v, %v", ex, ok)
			}
			a.free(ctx, alloc.Extent{Start: ex[0].Start, Len: 40})
			defer func() {
				if recover() == nil {
					t.Fatal("double free did not panic")
				}
			}()
			a.free(ctx, alloc.Extent{Start: ex[0].Start + tc.again.Start, Len: tc.again.Len})
		})
	}
}

// TestLoadFreeStateRejectsCorruptRecords: the unmount area is on-media
// input. One bad record — a FIFO entry off alignment or outside its
// group's pool, an empty or negative hole, a hole over another record or
// outside the pool — must fail the load as a whole (no half-loaded
// allocator), and Mount must fall back to the scan and audit clean.
func TestLoadFreeStateRejectsCorruptRecords(t *testing.T) {
	put := func(raw []byte, off int, v uint64) { binary.LittleEndian.PutUint64(raw[off:], v) }
	get := func(raw []byte, off int) uint64 { return binary.LittleEndian.Uint64(raw[off:]) }
	// a0 and h0 are the offsets of group 0's first FIFO entry and first
	// hole record (start, length) in the area; hi is its pool's end.
	for _, tc := range []struct {
		name    string
		corrupt func(raw []byte, a0, h0 int, hi uint64)
	}{
		{"intact", func([]byte, int, int, uint64) {}},
		{"aligned entry off alignment", func(raw []byte, a0, _ int, _ uint64) { put(raw, a0, get(raw, a0)+1) }},
		{"aligned entry outside the pool", func(raw []byte, a0, _ int, hi uint64) { put(raw, a0, hi) }},
		{"aligned entry twice", func(raw []byte, a0, _ int, _ uint64) { put(raw, a0, get(raw, a0+8)) }},
		{"empty hole", func(raw []byte, _, h0 int, _ uint64) { put(raw, h0+8, 0) }},
		{"negative-length hole", func(raw []byte, _, h0 int, _ uint64) { put(raw, h0+8, ^uint64(4)) }},
		{"hole over another hole", func(raw []byte, _, h0 int, _ uint64) { put(raw, h0+16, get(raw, h0)) }},
		{"hole over an aligned entry", func(raw []byte, a0, h0 int, _ uint64) { put(raw, h0, get(raw, a0)+3) }},
		{"hole outside the pool", func(raw []byte, _, h0 int, hi uint64) { put(raw, h0, hi-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(128 << 20)
			fs, err := Mkfs(ctx, dev, Options{CPUs: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Three small files, the middle one unlinked: group 0 ends with
			// at least two holes beside its aligned extents.
			for _, name := range []string{"/a", "/b", "/c"} {
				f, err := fs.Create(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				f.Append(ctx, make([]byte, 10*BlockSize))
				f.Close(ctx)
			}
			if err := fs.Unlink(ctx, "/b"); err != nil {
				t.Fatal(err)
			}
			want := fs.StatFS(ctx)
			if err := fs.Unmount(ctx); err != nil {
				t.Fatal(err)
			}

			area := fs.g.unmountStart * BlockSize
			raw := make([]byte, fs.g.unmountBlocks*BlockSize)
			dev.ReadAt(raw, area)
			na := int(get(raw, 16))
			a0, h0 := 24, 24+na*8+8
			if nh := get(raw, h0-8); na < 2 || nh < 2 {
				t.Fatalf("setup: group 0 saved %d aligned entries and %d holes, want at least 2 of each", na, nh)
			}
			_, hi := fs.g.poolRange(0)
			tc.corrupt(raw, a0, h0, uint64(hi))
			dev.WriteAt(raw, area)

			fs2, err := Mount(ctx, dev, Options{CPUs: 2})
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			if err := fs2.Audit(ctx); err != nil {
				t.Fatalf("audit after mount: %v", err)
			}
			if got := fs2.StatFS(ctx); got.FreeBlocks != want.FreeBlocks || got.FreeAligned2M != want.FreeAligned2M {
				t.Fatalf("free space %d/%d after mount, %d/%d before unmount",
					got.FreeBlocks, got.FreeAligned2M, want.FreeBlocks, want.FreeAligned2M)
			}
			// The stale area is still there: loading it again must refuse
			// (except intact) and leave the live allocator untouched.
			if ok := fs2.loadFreeState(ctx); ok != (tc.name == "intact") {
				t.Fatalf("loadFreeState = %v", ok)
			}
			if err := fs2.Audit(ctx); err != nil {
				t.Fatalf("audit after a refused load: %v", err)
			}
		})
	}
}
