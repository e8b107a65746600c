package recycle

import (
	"sync"
	"testing"
)

// Grow copies the elements before the outgrown storage goes back, takes
// storage of the class it needs from the pool, and what comes back from
// the pool is zero past the copied elements.
func TestGrowReusesZeroedStorage(t *testing.T) {
	var p Pool[int64]
	old := []int64{9, 9, 9, 9}
	p.Put(old)
	s := p.Grow([]int64{1, 2}) // full at two: wants four
	if &s[:4][0] != &old[0] {
		t.Fatal("Grow allocated while the pool held storage of the class it needed")
	}
	if len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("Grow returned %v, want [1 2]", s)
	}
	if tail := s[2:4]; tail[0] != 0 || tail[1] != 0 {
		t.Fatalf("recycled storage not zeroed: %v", tail)
	}
	// The outgrown array of two is in the pool now, zeroed: the next
	// growth to two takes it.
	s2 := p.Grow(append(make([]int64, 0, 1), 5))
	if s2[0] != 5 || s2[:2][1] != 0 || cap(s2) != 2 {
		t.Fatalf("second growth: %v cap %d, want [5] in an array of two zeros", s2[:2], cap(s2))
	}
}

// Each class keeps at most classBytes of storage, and storage larger than
// that is never kept.
func TestRetentionBoundedByBytes(t *testing.T) {
	var p Pool[int64]
	for i := 0; i < 100; i++ {
		p.Put(make([]int64, 0, 64)) // 512 bytes, class 6
	}
	if got := p.Held(); got != classBytes {
		t.Fatalf("class 6 holds %d bytes, want %d", got, classBytes)
	}
	p.Put(make([]int64, 0, 2*classBytes/8))
	if got := p.Held(); got != classBytes {
		t.Fatalf("a buffer over classBytes was kept: %d bytes held", got)
	}
	var nilPool *Pool[int64]
	nilPool.Put(make([]int64, 1))
	if s := nilPool.Grow([]int64{3}); len(s) != 1 || s[0] != 3 || cap(s) < 2 {
		t.Fatalf("a nil pool's Grow returned %v cap %d", s, cap(s))
	}
}

// Owners on several goroutines grow and release through one pool (run
// under -race).
func TestConcurrentOwners(t *testing.T) {
	var p Pool[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for life := 0; life < 200; life++ {
				var s []int
				for i := 0; i < (g+life)%40; i++ {
					s = append(p.Grow(s), i)
				}
				for i, v := range s {
					if v != i {
						t.Errorf("goroutine %d: element %d is %d", g, i, v)
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
