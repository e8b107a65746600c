package tier

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/sim"
)

func poolTotal(exts []alloc.Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.Len
	}
	return n
}

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(1000, 100)
	if p.FreeBlocks() != 100 {
		t.Fatalf("fresh pool free=%d", p.FreeBlocks())
	}
	a, _ := p.Alloc(40, nil)
	if poolTotal(a) != 40 || p.FreeBlocks() != 60 {
		t.Fatalf("alloc 40: got %v free=%d", a, p.FreeBlocks())
	}
	if a[0].Start < 1000 || a[0].End() > 1100 {
		t.Fatalf("alloc outside region: %v", a)
	}
	b, _ := p.Alloc(60, nil)
	if poolTotal(b) != 60 || p.FreeBlocks() != 0 {
		t.Fatalf("alloc 60: got %v free=%d", b, p.FreeBlocks())
	}
	if _, ok := p.Alloc(1, nil); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
	for _, e := range a {
		p.Free(e.Start, e.Len)
	}
	for _, e := range b {
		p.Free(e.Start, e.Len)
	}
	if p.FreeBlocks() != 100 {
		t.Fatalf("after free all: free=%d", p.FreeBlocks())
	}
	fe := p.FreeExtents()
	if len(fe) != 1 || fe[0].Start != 1000 || fe[0].Len != 100 {
		t.Fatalf("free list did not coalesce: %v", fe)
	}
}

func TestPoolGatherAndMarkUsed(t *testing.T) {
	p := NewPool(0, 30)
	// Fragment the pool: allocate all, free alternating 5-block runs.
	all, _ := p.Alloc(30, nil)
	if poolTotal(all) != 30 {
		t.Fatal("full alloc failed")
	}
	for start := int64(0); start < 30; start += 10 {
		p.Free(start, 5)
	}
	// 15 free blocks in three 5-block fragments; a 12-block request must
	// gather across fragments.
	got, _ := p.Alloc(12, nil)
	if poolTotal(got) != 12 {
		t.Fatalf("gather alloc returned %v", got)
	}
	if len(got) < 3 {
		t.Fatalf("expected gather across fragments, got %v", got)
	}
	if p.FreeBlocks() != 3 {
		t.Fatalf("free after gather=%d", p.FreeBlocks())
	}

	// Rebuild-style MarkUsed: reset then replay the allocation.
	p = NewPool(0, 30)
	for _, e := range got {
		p.MarkUsed(e.Start, e.Len)
	}
	if p.FreeBlocks() != 18 {
		t.Fatalf("free after replay=%d", p.FreeBlocks())
	}
	// The replayed blocks must not be handed out again.
	seen := map[int64]bool{}
	for _, e := range got {
		for b := e.Start; b < e.End(); b++ {
			seen[b] = true
		}
	}
	rest, _ := p.Alloc(18, nil)
	for _, e := range rest {
		for b := e.Start; b < e.End(); b++ {
			if seen[b] {
				t.Fatalf("block %d double-allocated after MarkUsed replay", b)
			}
		}
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	p := NewPool(0, 10)
	p.Alloc(10, nil)
	p.Free(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(3, 2)
}

func TestPoolRandomizedInvariant(t *testing.T) {
	rng := sim.NewRand(7)
	p := NewPool(512, 4096)
	type held struct{ start, length int64 }
	var live []held
	for i := 0; i < 2000; i++ {
		if rng.Int63n(2) == 0 && p.FreeBlocks() > 0 {
			n := rng.Int63n(64) + 1
			if n > p.FreeBlocks() {
				n = p.FreeBlocks()
			}
			got, _ := p.Alloc(n, nil)
			for _, e := range got {
				live = append(live, held{e.Start, e.Len})
			}
		} else if len(live) > 0 {
			j := rng.Int63n(int64(len(live)))
			h := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			p.Free(h.start, h.length)
		}
		var liveN int64
		for _, h := range live {
			liveN += h.length
		}
		if p.FreeBlocks()+liveN != 4096 {
			t.Fatalf("iter %d: free %d + live %d != 4096", i, p.FreeBlocks(), liveN)
		}
	}
}
