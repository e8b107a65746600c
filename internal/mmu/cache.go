package mmu

// assoc is a set-associative LRU array used for both the TLB and the
// last-level cache simulation. All sets live in one flat key array, ways
// slots per set in MRU-first order, with a per-set fill count: one
// allocation per structure, where a slice per set made the LLC 8,192 of
// them. It has no lock of its own: an AddressSpace guards its three
// arrays with one mutex (AddressSpace.cacheMu), so a mapped access takes
// one lock for its translation and its data lines together.
type assoc struct {
	ways int
	mask uint64
	keys []uint64 // set s holds keys[s*ways : s*ways+fill[s]], MRU first
	fill []uint8
}

// newAssoc builds an array with the given total entry count and way count.
// The set count is rounded down to a power of two (minimum 1).
func newAssoc(entries, ways int) *assoc {
	if ways <= 0 {
		ways = 1
	}
	if ways > 255 {
		panic("mmu: more than 255 ways")
	}
	if entries < ways {
		entries = ways
	}
	nsets := 1
	for nsets*2 <= entries/ways {
		nsets *= 2
	}
	return &assoc{
		ways: ways,
		mask: uint64(nsets - 1),
		keys: make([]uint64, nsets*ways),
		fill: make([]uint8, nsets),
	}
}

// mix hashes the key to spread sequential keys across sets while staying
// deterministic.
func mix(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// touch looks key up, promoting it to MRU on hit and inserting it (evicting
// the LRU way if needed) on miss. Returns whether the access hit.
func (a *assoc) touch(key uint64) bool {
	si := mix(key) & a.mask
	base := int(si) * a.ways
	n := int(a.fill[si])
	s := a.keys[base : base+a.ways]
	for i, k := range s[:n] {
		if k == key {
			// Move to front (MRU).
			copy(s[1:i+1], s[:i])
			s[0] = key
			return true
		}
	}
	if n < a.ways {
		n++
		a.fill[si] = uint8(n)
	}
	copy(s[1:n], s[:n-1])
	s[0] = key
	return false
}

// touchRun touches n sequential keys (key, key+1, ..., key+n-1), returning
// how many hit. The state changes are exactly those of n individual touch
// calls in the same order. Callers use this for the cache lines of one
// contiguous access run.
func (a *assoc) touchRun(key uint64, n int) int {
	hits := 0
	for j := 0; j < n; j++ {
		if a.touch(key + uint64(j)) {
			hits++
		}
	}
	return hits
}

// flushAll empties the array (e.g. TLB shootdown on munmap).
func (a *assoc) flushAll() { clear(a.fill) }
