package pmem

import (
	"sort"

	"repro/internal/sim"
)

// Recording is one operation as a crash test sees it: the device image
// before the operation and every store the operation issued, in order, each
// tagged with its fence epoch. Every crash state of the operation is built
// from it: a cut at a fence (Cut), ACE's subsets of one epoch's in-flight
// stores (Crashes), or one epoch torn at cache-line granularity (Torn).
type Recording struct {
	Base   *Image
	Stores []Store
}

// Record snapshots the device, runs op with its stores traced and returns
// the two as a Recording, together with op's error.
func (d *Device) Record(op func() error) (*Recording, error) {
	rec := &Recording{Base: d.Snapshot()}
	d.startTrace()
	err := op()
	rec.Stores = d.stopTrace()
	return rec, err
}

// Last is the epoch of the operation's last store, 0 when it stored
// nothing: Cut(Last()+1) is the device after the operation.
func (r *Recording) Last() int {
	if len(r.Stores) == 0 {
		return 0
	}
	return r.Stores[len(r.Stores)-1].Epoch
}

// Epoch returns the stores issued in epoch e.
func (r *Recording) Epoch(e int) []Store {
	return r.Stores[r.first(e):r.first(e+1)]
}

// first is the index of the first store of epoch e or later (epochs only
// grow along a trace).
func (r *Recording) first(e int) int {
	return sort.Search(len(r.Stores), func(i int) bool { return r.Stores[i].Epoch >= e })
}

// Cut is what a crash at the fence that opens epoch e leaves: the base
// image plus every store of the epochs before e. Cut(0) is the base.
func (r *Recording) Cut(e int) *Image {
	img := r.Base.Clone()
	img.Apply(r.Stores[:r.first(e)])
	return img
}

// Torn is Cut(e) plus epoch e's stores torn at cache-line granularity:
// each of their cache lines persists with probability keep, drawn from rng
// in store order. Torn(e, 0, rng) is Cut(e) and Torn(e, 1, rng) is Cut(e+1).
func (r *Recording) Torn(e int, keep float64, rng *sim.Rand) *Image {
	img := r.Cut(e)
	img.Apply(tearLines(r.Epoch(e), keep, rng))
	return img
}

// Crashes calls fn with every crash state ACE explores (§5.2). For each
// epoch e up to Last() it yields Cut(e) plus each chosen subset of e's n
// in-flight stores, bit i of mask standing for the i-th: all 2ⁿ subsets
// when n ≤ 16 and 2ⁿ ≤ maxSubsets; otherwise none, all, and maxSubsets-2
// masks drawn from rng. Last it yields the device after the operation as
// epoch Last()+1, mask 0. fn owns each image it is given; when it returns
// false no further states are built.
func (r *Recording) Crashes(maxSubsets int, rng *sim.Rand, fn func(img *Image, epoch int, mask uint64) bool) {
	last, cut := r.Last(), r.Base.Clone()
	for e := 0; e <= last; e++ {
		inflight := r.Epoch(e)
		n := uint(len(inflight))
		every := n <= 16 && 1<<n <= maxSubsets
		masks := max(maxSubsets, 2)
		if every {
			masks = 1 << n
		}
		for k := 0; k < masks; k++ {
			var mask uint64
			switch {
			case every:
				mask = uint64(k)
			case k == 1:
				mask = 1<<n - 1
			case k > 1:
				mask = rng.Uint64() & (1<<n - 1)
			}
			img := cut.Clone()
			for i := range inflight {
				if mask&(1<<uint(i)) != 0 {
					img.Apply(inflight[i : i+1])
				}
			}
			if !fn(img, e, mask) {
				return
			}
		}
		cut.Apply(inflight)
	}
	fn(cut, last+1, 0)
}

// tearLines returns the pieces of stores that persist when each of their
// cache lines survives with probability keep, drawn from rng in store
// order. Adjacent surviving lines of one store stay one piece.
func tearLines(stores []Store, keep float64, rng *sim.Rand) []Store {
	var out []Store
	for _, s := range stores {
		pos, rest := s.Off, s.Data
		var cur *Store
		for len(rest) > 0 {
			n := min(pos/CacheLine*CacheLine+CacheLine-pos, int64(len(rest)))
			switch {
			case rng.Float64() >= keep:
				cur = nil
			case cur != nil:
				cur.Data = append(cur.Data, rest[:n]...)
			default:
				out = append(out, Store{Off: pos, Data: append([]byte(nil), rest[:n]...), Epoch: s.Epoch})
				cur = &out[len(out)-1]
			}
			pos += n
			rest = rest[n:]
		}
	}
	return out
}
