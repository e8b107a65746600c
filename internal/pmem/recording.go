package pmem

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// Recording is one operation as a crash test sees it: a snapshot of the
// device before the operation and every store the operation issued, in
// order, each tagged with its fence epoch. Every crash state of the
// operation is built from it as a device of its own, one Snapshot of Base
// plus the stores that persisted: a cut at a fence (Cut), ACE's subsets of
// one epoch's in-flight stores (Crashes), or one epoch torn at cache-line
// granularity (Torn). The caller owns each state, and Base, and Releases
// them when done.
type Recording struct {
	Base   *Device
	Stores []Store
}

// Store is one recorded device store, tagged with the fence epoch it was
// issued in. Stores sharing an epoch were in flight together and may
// persist in any subset/order at a crash.
type Store struct {
	Off   int64
	Data  []byte
	Epoch int
}

// Record snapshots the device, runs op with a recorder as the device's
// observer and returns the two as a Recording, together with op's error.
// It panics when the device already has an observer (a replicator), which
// it would otherwise detach; when it returns the device has none.
func (d *Device) Record(op func() error) (*Recording, error) {
	rec := &Recording{Base: d.Snapshot()}
	r := &recorder{}
	box := &observerBox{obs: r}
	if !d.obs.CompareAndSwap(nil, box) {
		panic("pmem: Record on a device that already has an observer")
	}
	defer d.obs.CompareAndSwap(box, nil)
	err := op()
	rec.Stores = r.stop()
	return rec, err
}

// recorder is the Observer behind Record. It keeps a copy of each store, a
// zeroed range as a store of zeros, and counts fences as epochs. A discard
// is not a store: the freed range's contents are undefined, so no crash
// state depends on it.
type recorder struct {
	mu     sync.Mutex
	done   bool
	epoch  int
	stores []Store
}

func (r *recorder) ObserveWrite(off int64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	r.add(off, cp)
}

func (r *recorder) ObserveZero(off, n int64) { r.add(off, make([]byte, n)) }

func (r *recorder) ObserveDiscard(off, n int64) {}

func (r *recorder) ObserveFence() {
	r.mu.Lock()
	r.epoch++
	r.mu.Unlock()
}

// add keeps data, which the recorder owns, as a store of the current
// epoch.
func (r *recorder) add(off int64, data []byte) {
	r.mu.Lock()
	if !r.done {
		r.stores = append(r.stores, Store{Off: off, Data: data, Epoch: r.epoch})
	}
	r.mu.Unlock()
}

// stop returns the stores and drops any that arrive later, from a
// goroutine that loaded the observer before Record removed it.
func (r *recorder) stop() []Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = true
	return r.stores
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
// plus every store of the epochs before e. Cut(0) is a copy of the base.
func (r *Recording) Cut(e int) *Device {
	dev := r.Base.Snapshot()
	dev.apply(r.Stores[:r.first(e)])
	return dev
}

// Torn is Cut(e) plus epoch e's stores torn at cache-line granularity:
// each of their cache lines persists with probability keep, drawn from rng
// in store order. Torn(e, 0, rng) is Cut(e) and Torn(e, 1, rng) is Cut(e+1).
func (r *Recording) Torn(e int, keep float64, rng *sim.Rand) *Device {
	dev := r.Cut(e)
	dev.apply(tearLines(r.Epoch(e), keep, rng))
	return dev
}

// Crashes calls fn with every crash state ACE explores (§5.2). For each
// epoch e up to Last() it yields Cut(e) plus each chosen subset of e's n
// in-flight stores, bit i of mask standing for the i-th: all 2ⁿ subsets
// when n ≤ 16 and 2ⁿ ≤ maxSubsets; otherwise none, all, and maxSubsets-2
// masks drawn from rng. Last it yields the device after the operation as
// epoch Last()+1, mask 0. fn owns each device it is given; when it
// returns false no further states are built.
func (r *Recording) Crashes(maxSubsets int, rng *sim.Rand, fn func(dev *Device, epoch int, mask uint64) bool) {
	last, cut := r.Last(), r.Base.Snapshot()
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
			dev := cut.Snapshot()
			for i := range inflight {
				if mask&(1<<uint(i)) != 0 {
					dev.apply(inflight[i : i+1])
				}
			}
			if !fn(dev, e, mask) {
				cut.Release()
				return
			}
		}
		cut.apply(inflight)
	}
	fn(cut, last+1, 0)
}

// apply replays stores onto the device in order as raw bytes, with no
// observer or poison bookkeeping: it builds a crash state on a device no
// one else holds.
func (d *Device) apply(stores []Store) {
	for _, s := range stores {
		d.writeRaw(s.Data, s.Off)
	}
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
