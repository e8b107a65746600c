package alloc

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// poolModel is the naive reference for Pool: one bool per block, plus the
// seams Insert leaves between adjacent extents it did not merge. Every
// query is a linear scan, written from the documented policy rather than
// from the trees.
type poolModel struct {
	free []bool
	seam map[int64]bool // seam[b]: blocks b-1 and b are free but in different extents
}

func (m *poolModel) extents() []Extent {
	var out []Extent
	for b := int64(0); b < int64(len(m.free)); b++ {
		if !m.free[b] {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == b && !m.seam[b] {
			out[n-1].Len++
		} else {
			out = append(out, Extent{Start: b, Len: 1})
		}
	}
	return out
}

func (m *poolModel) set(start, length int64, v bool) {
	for b := start; b < start+length; b++ {
		m.free[b] = v
	}
	if !v { // a seam needs free blocks on both sides
		for b := start; b <= start+length; b++ {
			delete(m.seam, b)
		}
	}
}

func (m *poolModel) isFree(b int64) bool { return b >= 0 && b < int64(len(m.free)) && m.free[b] }

// containing returns the model extent holding block b.
func (m *poolModel) containing(b int64) Extent {
	for _, e := range m.extents() {
		if e.Start <= b && b < e.End() {
			return e
		}
	}
	return Extent{}
}

// bySize orders the extents as the by-(size, start) index does.
func (m *poolModel) bySize() []Extent {
	ex := m.extents()
	sort.Slice(ex, func(i, j int) bool {
		if ex[i].Len != ex[j].Len {
			return ex[i].Len < ex[j].Len
		}
		return ex[i].Start < ex[j].Start
	})
	return ex
}

func alignUp(b int64) int64 { return (b + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge }

// TestPoolDifferential drives Pool and the bitmap model with the same
// random operations — every entry point, including the merged range Add
// reports, the parts Carve reports and First — and compares each result
// and the full extent list, with Check() after every step.
func TestPoolDifferential(t *testing.T) {
	const size = 6 * BlocksPerHuge
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool()
		m := &poolModel{free: make([]bool, size), seam: map[int64]bool{}}
		// usedRun picks a random run of used blocks (nothing to free: ok false).
		usedRun := func() (start, length int64, ok bool) {
			for try := 0; try < 20; try++ {
				b := rng.Int63n(size)
				if m.free[b] {
					continue
				}
				lo, hi := b, b+1
				for span := rng.Int63n(300); lo > 0 && !m.free[lo-1] && b-lo < span; lo-- {
				}
				for span := rng.Int63n(300); hi < size && !m.free[hi] && hi-b < span; hi++ {
				}
				return lo, hi - lo, true
			}
			return 0, 0, false
		}
		for step := 0; step < 6000; step++ {
			need := rng.Int63n(200) + 1
			if rng.Intn(6) == 0 {
				need = rng.Int63n(2*BlocksPerHuge) + 1
			}
			var got, want interface{}
			op := rng.Intn(11)
			switch op {
			case 0, 1: // Add merges with both neighbours, across seams too
				s, l, ok := usedRun()
				if !ok {
					continue
				}
				m.set(s, l, true)
				delete(m.seam, s)
				delete(m.seam, s+l)
				got, want = p.Add(s, l), m.containing(s)
			case 2: // Insert merges with neither
				s, l, ok := usedRun()
				if !ok {
					continue
				}
				m.set(s, l, true)
				m.seam[s], m.seam[s+l] = m.isFree(s-1), m.isFree(s+l)
				p.Insert(s, l)
				got, want = m.containing(s), Extent{Start: s, Len: l}
			case 3: // TakeAt succeeds iff one extent covers the range
				s := rng.Int63n(size)
				e := m.containing(s)
				ok := e.Len > 0 && s+need <= e.End()
				if ok {
					m.set(s, need, false)
				}
				got, want = p.TakeAt(s, need), ok
			case 4: // smallest adequate extent, lowest start on ties
				var w Extent
				for _, e := range m.bySize() {
					if e.Len >= need {
						w = Extent{Start: e.Start, Len: need}
						break
					}
				}
				m.set(w.Start, w.Len, false)
				e, ok := p.TakeBestFit(need)
				got, want = []interface{}{e, ok}, []interface{}{w, w.Len > 0}
			case 5: // largest extent whole, highest start on ties
				var w Extent
				if ex := m.bySize(); len(ex) > 0 && rng.Intn(4) == 0 {
					w = ex[len(ex)-1]
					m.set(w.Start, w.Len, false)
					e, ok := p.TakeLargest()
					got, want = []interface{}{e, ok}, []interface{}{w, true}
				}
			case 6: // first adequate extent at or after from, wrapping once
				from := rng.Int63n(size)
				var w Extent
				ex := m.extents()
				for pass := 0; pass < 2 && w.Len == 0; pass++ {
					for _, e := range ex {
						if e.Len >= need && (pass == 0) == (e.Start >= from) {
							w = Extent{Start: e.Start, Len: need}
							break
						}
					}
				}
				m.set(w.Start, w.Len, false)
				e, ok := p.TakeNextFit(from, need)
				got, want = []interface{}{e, ok}, []interface{}{w, w.Len > 0}
			case 7: // aligned start inside the smallest extent that has room
				var w Extent
				for _, e := range m.bySize() {
					if e.Len >= need && alignUp(e.Start)+need <= e.End() {
						w = Extent{Start: alignUp(e.Start), Len: need}
						break
					}
				}
				m.set(w.Start, w.Len, false)
				e, ok := p.TakeAligned(need)
				got, want = []interface{}{e, ok}, []interface{}{w, w.Len > 0}
			case 8: // aligned start inside [lo, hi), lowest extent first
				lo := rng.Int63n(size)
				hi := lo + rng.Int63n(2*BlocksPerHuge) + 1
				var w Extent
				for _, e := range m.extents() {
					first := alignUp(max(e.Start, lo))
					if e.End() > lo && e.Start < hi && first < hi && first+need <= e.End() {
						w = Extent{Start: first, Len: need}
						break
					}
				}
				m.set(w.Start, w.Len, false)
				e, ok := p.TakeAlignedInRange(lo, hi, need)
				got, want = []interface{}{e, ok}, []interface{}{w, w.Len > 0}
			case 9: // Carve reports each extent's part inside the range
				s := rng.Int63n(size - need)
				var w []Extent
				for _, e := range m.extents() {
					if lo, hi := max(e.Start, s), min(e.End(), s+need); lo < hi {
						w = append(w, Extent{Start: lo, Len: hi - lo})
					}
				}
				m.set(s, need, false)
				got, want = p.Carve(s, need, nil), w
			case 10:
				e, ok := p.First()
				var w Extent
				if ex := m.extents(); len(ex) > 0 {
					w = ex[0]
				}
				got, want = []interface{}{e, ok}, []interface{}{w, w.Len > 0}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d op %d: got %v, model says %v", seed, step, op, got, want)
			}
			if err := p.Check(); err != nil {
				t.Fatalf("seed %d step %d op %d: Check: %v", seed, step, op, err)
			}
			ex := m.extents()
			if !reflect.DeepEqual(p.Extents(), append([]Extent{}, ex...)) || p.FreeBlocks() != TotalBlocks(ex) || len(p.Extents()) != len(ex) {
				t.Fatalf("seed %d step %d op %d: extents %v (free %d), model says %v", seed, step, op, p.Extents(), p.FreeBlocks(), ex)
			}
		}
	}
}

// TestPoolDoubleFreePanics: a range overlapping free space is rejected by
// Add and Insert alike, whichever way it overlaps, and the pool is left as
// it was.
func TestPoolDoubleFreePanics(t *testing.T) {
	for _, tc := range []struct {
		name          string
		start, length int64
	}{
		{"overlaps the extent before it", 140, 20},
		{"overlaps the extent after it", 90, 20},
		{"inside an extent", 110, 10},
		{"contains an extent", 90, 70},
		{"exact repeat", 100, 50},
		{"bridges two extents", 140, 70},
	} {
		for name, free := range map[string]func(*Pool, int64, int64){
			"Add":    func(p *Pool, s, l int64) { p.Add(s, l) },
			"Insert": (*Pool).Insert,
		} {
			t.Run(name+" "+tc.name, func(t *testing.T) {
				p := NewPool()
				p.Add(100, 50)
				p.Add(200, 50)
				defer func() {
					if r := recover(); r == nil || !strings.Contains(r.(string), "double free") {
						t.Fatalf("no double-free panic: %v", r)
					}
					if err := p.Check(); err != nil || p.FreeBlocks() != 100 {
						t.Fatalf("pool changed by a rejected free: %v, free=%d", err, p.FreeBlocks())
					}
				}()
				free(p, tc.start, tc.length)
			})
		}
	}
}

// TestPoolCheckDetectsCountDrift: the cached block count must equal the
// sum over the extents.
func TestPoolCheckDetectsCountDrift(t *testing.T) {
	p := NewPool()
	p.Add(0, 100)
	p.Add(200, 30)
	if err := p.Check(); err != nil {
		t.Fatalf("clean pool: %v", err)
	}
	p.blocks += 7
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "sum to 130") {
		t.Fatalf("count drift not reported: %v", err)
	}
}

// TestPoolCheckDetectsIndexSkew: the by-start and by-size indexes must
// stay in lockstep, in both directions.
func TestPoolCheckDetectsIndexSkew(t *testing.T) {
	p := NewPool()
	p.Add(0, 100)
	p.Add(200, 30)
	p.bySize.Delete(sizeKey{30, 200})
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "missing from by-size") {
		t.Fatalf("missing by-size entry not reported: %v", err)
	}
	p.bySize.Set(sizeKey{30, 200}, struct{}{})
	p.bySize.Set(sizeKey{5, 400}, struct{}{})
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "by-size entries") {
		t.Fatalf("stray by-size entry not reported: %v", err)
	}
	// A by-start entry overwritten in place (what an unchecked overlapping
	// free used to do) leaves its old by-size entry behind.
	p.bySize.Delete(sizeKey{5, 400})
	p.byStart.Set(200, 40)
	if err := p.Check(); err == nil {
		t.Fatal("overwritten by-start entry not reported")
	}
}
