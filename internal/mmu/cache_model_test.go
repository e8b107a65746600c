package mmu

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// assocModel is the reference for assoc: the set-associative LRU array
// as a slice per set, each in MRU-first order. assoc keeps every set in
// one flat array instead; TestAssocAgainstModel holds it to this.
type assocModel struct {
	mu   sync.Mutex
	ways int
	mask uint64
	sets [][]uint64
}

// newAssocModel builds an array with the given total entry count and way
// count. The set count is rounded down to a power of two (minimum 1).
func newAssocModel(entries, ways int) *assocModel {
	if ways <= 0 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	nsets := 1
	for nsets*2 <= entries/ways {
		nsets *= 2
	}
	a := &assocModel{ways: ways, mask: uint64(nsets - 1)}
	a.sets = make([][]uint64, nsets)
	for i := range a.sets {
		a.sets[i] = make([]uint64, 0, ways)
	}
	return a
}

// touch looks key up, promoting it to MRU on hit and inserting it (evicting
// the LRU way if needed) on miss. Returns whether the access hit.
func (a *assocModel) touch(key uint64) bool {
	set := &a.sets[mix(key)&a.mask]
	a.mu.Lock()
	defer a.mu.Unlock()
	s := *set
	for i, k := range s {
		if k == key {
			// Move to front (MRU).
			copy(s[1:i+1], s[:i])
			s[0] = key
			return true
		}
	}
	if len(s) < a.ways {
		s = append(s, 0)
	}
	copy(s[1:], s[:len(s)-1])
	s[0] = key
	*set = s
	return false
}

// touchRun touches n sequential keys (key, key+1, ..., key+n-1) under one
// lock acquisition, returning how many hit. The state changes are exactly
// those of n individual touch calls in the same order — the keys are
// distinct, so each lands in its set independently and batching only
// amortises the lock. Callers use this for the cache lines of one
// contiguous access run.
func (a *assocModel) touchRun(key uint64, n int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	hits := 0
	for j := 0; j < n; j++ {
		k := key + uint64(j)
		set := &a.sets[mix(k)&a.mask]
		s := *set
		hit := false
		for i, kk := range s {
			if kk == k {
				copy(s[1:i+1], s[:i])
				s[0] = k
				hits++
				hit = true
				break
			}
		}
		if !hit {
			if len(s) < a.ways {
				s = append(s, 0)
			}
			copy(s[1:], s[:len(s)-1])
			s[0] = k
			*set = s
		}
	}
	return hits
}

// flushAll empties the array (e.g. TLB shootdown on munmap).
func (a *assocModel) flushAll() {
	a.mu.Lock()
	for i := range a.sets {
		a.sets[i] = a.sets[i][:0]
	}
	a.mu.Unlock()
}

// size returns the number of resident entries.
func (a *assocModel) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.sets {
		n += len(s)
	}
	return n
}

// size returns the number of resident entries.
func (a *assoc) size() int {
	n := 0
	for _, f := range a.fill {
		n += int(f)
	}
	return n
}

// set returns set s of a in MRU-first order.
func (a *assoc) set(s int) []uint64 {
	return a.keys[s*a.ways : s*a.ways+int(a.fill[s])]
}

// TestAssocAgainstModel feeds seeded key streams to assoc and to
// assocModel in the shapes the MMU builds (1536×4 for both TLBs, the
// default LLC's 131072×16, and the 8×2 of TestAssocLRU): single touches
// over a working set about twice the capacity, so that hits, promotions
// and evictions all happen; sequential touchRun runs of 1 to 64 lines, as
// accessFine hands over; keys in the page-walk key spaces; and a flushAll
// partway through. Every hit/miss answer and, at the end, every set's
// MRU order must be identical.
func TestAssocAgainstModel(t *testing.T) {
	for _, shape := range [][2]int{{1536, 4}, {131072, 16}, {8, 2}} {
		entries, ways := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", entries, ways), func(t *testing.T) {
			a, ref := newAssoc(entries, ways), newAssocModel(entries, ways)
			if len(a.fill) != len(ref.sets) {
				t.Fatalf("%d sets, model has %d", len(a.fill), len(ref.sets))
			}
			rng := sim.NewRand(uint64(entries*31 + ways))
			span := uint64(2 * entries)
			const steps = 200_000
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					a.flushAll()
					ref.flushAll()
				}
				r := rng.Uint64()
				key := r % span
				switch r >> 60 {
				case 0, 1, 2, 3: // a run of data lines
					n := int(r>>32)%64 + 1
					if got, want := a.touchRun(key, n), ref.touchRun(key, n); got != want {
						t.Fatalf("step %d: touchRun(%d, %d) = %d hits, model %d", i, key, n, got, want)
					}
					continue
				case 4: // a page-walk line
					key = pteLineKey(key/8, r&1 == 0)
				case 5:
					key = pmdLineKey(key, r&1 == 0)
				}
				if got, want := a.touch(key), ref.touch(key); got != want {
					t.Fatalf("step %d: touch(%#x) hit=%v, model %v", i, key, got, want)
				}
			}
			if a.size() != ref.size() {
				t.Fatalf("%d resident entries, model %d", a.size(), ref.size())
			}
			for s := range ref.sets {
				if !slices.Equal(a.set(s), ref.sets[s]) {
					t.Fatalf("set %d in MRU order: %v, model %v", s, a.set(s), ref.sets[s])
				}
			}
		})
	}
}
