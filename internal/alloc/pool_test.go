package alloc

import (
	"testing"
	"testing/quick"
)

func TestPoolAddMerge(t *testing.T) {
	p := NewPool()
	p.Add(0, 100)
	p.Add(200, 100)
	if len(p.Extents()) != 2 || p.FreeBlocks() != 200 {
		t.Fatalf("holes=%d free=%d", len(p.Extents()), p.FreeBlocks())
	}
	p.Add(100, 100) // bridges the two
	if len(p.Extents()) != 1 || p.FreeBlocks() != 300 {
		t.Fatalf("after merge: holes=%d free=%d", len(p.Extents()), p.FreeBlocks())
	}
}

func TestPoolTakeAt(t *testing.T) {
	p := NewPool()
	p.Add(0, 1000)
	if !p.TakeAt(100, 50) {
		t.Fatal("TakeAt inside a free extent failed")
	}
	if p.TakeAt(100, 50) {
		t.Fatal("double TakeAt succeeded")
	}
	if p.TakeAt(990, 20) {
		t.Fatal("TakeAt past the end succeeded")
	}
	if p.FreeBlocks() != 950 || len(p.Extents()) != 2 {
		t.Fatalf("free=%d holes=%d", p.FreeBlocks(), len(p.Extents()))
	}
}

func TestPoolBestFit(t *testing.T) {
	p := NewPool()
	p.Add(0, 10)
	p.Add(100, 50)
	p.Add(200, 20)
	e, ok := p.TakeBestFit(15)
	if !ok || e.Start != 200 || e.Len != 15 {
		t.Fatalf("best fit = %+v", e)
	}
	// Largest: the 50-block hole.
	e, ok = p.TakeLargest()
	if !ok || e.Start != 100 || e.Len != 50 {
		t.Fatalf("largest = %+v", e)
	}
}

func TestPoolNextFitWraps(t *testing.T) {
	p := NewPool()
	p.Add(0, 100)
	p.Add(1000, 100)
	// Cursor past both: wraps to the first.
	e, ok := p.TakeNextFit(5000, 50)
	if !ok || e.Start != 0 {
		t.Fatalf("wrap next-fit = %+v ok=%v", e, ok)
	}
	// Cursor between: picks the second.
	e, ok = p.TakeNextFit(500, 50)
	if !ok || e.Start != 1000 {
		t.Fatalf("forward next-fit = %+v", e)
	}
	// Both remaining holes are 50 blocks: an 80-block request fails.
	if _, ok := p.TakeNextFit(0, 80); ok {
		t.Fatal("next-fit found space that does not exist")
	}
	// But a 50-block request still succeeds from the first hole.
	e, ok = p.TakeNextFit(0, 50)
	if !ok || e.Start != 50 {
		t.Fatalf("size-filtered next-fit = %+v", e)
	}
}

func TestPoolAlignedInRange(t *testing.T) {
	p := NewPool()
	p.Add(100, 3*BlocksPerHuge) // covers aligned boundaries at 512, 1024
	// Window excludes all boundaries.
	if _, ok := p.TakeAlignedInRange(0, 400, BlocksPerHuge); ok {
		t.Fatal("found aligned start outside window")
	}
	e, ok := p.TakeAlignedInRange(0, 600, BlocksPerHuge)
	if !ok || e.Start != 512 || e.Len != BlocksPerHuge {
		t.Fatalf("aligned-in-range = %+v", e)
	}
	// The carve must leave the head and tail as holes.
	if p.FreeBlocks() != 3*BlocksPerHuge-BlocksPerHuge {
		t.Fatalf("free = %d", p.FreeBlocks())
	}
}

func TestPoolTakeAligned(t *testing.T) {
	p := NewPool()
	p.Add(1, 511) // no aligned boundary fits
	if _, ok := p.TakeAligned(BlocksPerHuge); ok {
		t.Fatal("aligned take from unalignable space")
	}
	p.Add(512, 512)
	e, ok := p.TakeAligned(BlocksPerHuge)
	if !ok || e.Start != 512 {
		t.Fatalf("aligned = %+v", e)
	}
}

func TestPoolCarve(t *testing.T) {
	p := NewPool()
	p.Add(0, 1000)
	p.Carve(100, 200, nil)
	if p.FreeBlocks() != 800 || len(p.Extents()) != 2 {
		t.Fatalf("free=%d holes=%d", p.FreeBlocks(), len(p.Extents()))
	}
	// Carving an already-carved range is a no-op.
	p.Carve(150, 100, nil)
	if p.FreeBlocks() != 800 {
		t.Fatalf("free=%d", p.FreeBlocks())
	}
	// A carve straddling free and used space removes only the free part.
	p.Carve(250, 100, nil) // [250,350): only [300,350) is free
	if p.FreeBlocks() != 750 {
		t.Fatalf("straddling carve: free=%d", p.FreeBlocks())
	}
}

// TestPoolConservation: any sequence of takes and adds conserves blocks —
// nothing is lost or double-counted.
func TestPoolConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPool()
		const total = 4096
		p.Add(0, total)
		outstanding := []Extent{}
		var outBlocks int64
		for _, op := range ops {
			switch op % 3 {
			case 0:
				need := int64(op%127) + 1
				if e, ok := p.TakeBestFit(need); ok {
					outstanding = append(outstanding, e)
					outBlocks += e.Len
				}
			case 1:
				need := int64(op%511) + 1
				if e, ok := p.TakeNextFit(int64(op), need); ok {
					outstanding = append(outstanding, e)
					outBlocks += e.Len
				}
			case 2:
				if len(outstanding) > 0 {
					e := outstanding[len(outstanding)-1]
					outstanding = outstanding[:len(outstanding)-1]
					p.Add(e.Start, e.Len)
					outBlocks -= e.Len
				}
			}
			if p.FreeBlocks()+outBlocks != total {
				return false
			}
		}
		// Returning everything restores one fully merged extent.
		for _, e := range outstanding {
			p.Add(e.Start, e.Len)
		}
		return p.FreeBlocks() == total && len(p.Extents()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolNoOverlap: extents handed out concurrently-in-sequence never
// overlap each other.
func TestPoolNoOverlap(t *testing.T) {
	f := func(seed uint8, takes []uint8) bool {
		p := NewPool()
		p.Add(int64(seed), 8192)
		used := map[int64]bool{}
		for _, tk := range takes {
			need := int64(tk%64) + 1
			e, ok := p.TakeBestFit(need)
			if !ok {
				break
			}
			for b := e.Start; b < e.End(); b++ {
				if used[b] {
					return false
				}
				used[b] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPoolTakeAdd is the hole pool's steady churn: carve three blocks
// best-fit out of a pool of 4,096 four-block holes, give them back.
func BenchmarkPoolTakeAdd(b *testing.B) {
	p := NewPool()
	for i := int64(0); i < 4096; i++ {
		p.Add(i*8, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := p.TakeBestFit(3)
		if !ok {
			b.Fatal("pool empty")
		}
		p.Add(e.Start, e.Len)
	}
}
