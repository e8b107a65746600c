package main

import (
	"encoding/binary"
	"sync/atomic"
)

// The byte oracle: every byte the benchmark writes is a function of
// (file key, byte offset, version of the unit the byte lies in), so the
// expected content of any range at any time is computed, never stored.
// Offsets and lengths are multiples of 8 throughout the benchmark.

const (
	patMulOff = 0x9E3779B97F4A7C15
	patMulVer = 0xBF58476D1CE4E5B9
)

// fileKey derives a file's pattern key from the run seed and the
// file's id.
func fileKey(seed uint64, id uint64) uint64 {
	z := seed*patMulVer + id*patMulOff + 0x94D049BB133111EB
	z ^= z >> 31
	return z * patMulOff
}

// The pattern word for (key, word index w, version v) is
// (key+w)*patMulOff + v*patMulVer: consecutive words differ by
// patMulOff, so a run of them costs one add each.
func patFirst(key uint64, off int64, ver uint32) uint64 {
	return (key+uint64(off>>3))*patMulOff + uint64(ver)*patMulVer
}

// fillPat writes the pattern of version ver for file offset off into
// buf. Version 0 is "never written": zeros, what fallocate leaves.
func fillPat(buf []byte, key uint64, off int64, ver uint32) {
	if ver == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	x := patFirst(key, off, ver)
	for ; len(buf) >= 8; buf = buf[8:] {
		binary.LittleEndian.PutUint64(buf, x)
		x += patMulOff
	}
}

// checkPat reports whether buf holds version ver for file offset off.
func checkPat(buf []byte, key uint64, off int64, ver uint32) bool {
	x, step := patFirst(key, off, ver), uint64(patMulOff)
	if ver == 0 {
		x, step = 0, 0
	}
	var diff uint64
	for ; len(buf) >= 8; buf = buf[8:] {
		diff |= binary.LittleEndian.Uint64(buf) ^ x
		x += step
	}
	return diff == 0
}

// oracle tracks one file owned by a single simulated thread: its
// pattern key, its size and one version per unit (a 64B line for
// mapped files, a 4KiB block for the rest).
type oracle struct {
	key  uint64
	unit int64
	size int64
	ver  []uint8
}

func newOracle(key uint64, unit, size int64, ver uint8) *oracle {
	o := &oracle{key: key, unit: unit}
	o.grow(size, ver)
	return o
}

// grow extends the file to size; units that come into being start at
// version ver. The unit the old end of file lay in keeps its version:
// appended bytes complete it, they do not rewrite it.
func (o *oracle) grow(size int64, ver uint8) {
	o.size = size
	for int64(len(o.ver))*o.unit < size {
		o.ver = append(o.ver, ver)
	}
}

// each calls fn for every unit-aligned piece of [off, off+n).
func (o *oracle) each(off, n int64, fn func(lo, hi int64, u int64)) {
	for end := off + n; off < end; {
		u := off / o.unit
		hi := (u + 1) * o.unit
		if hi > end {
			hi = end
		}
		fn(off, hi, u)
		off = hi
	}
}

// bump moves every unit of [off, off+n) to its next version and
// returns nothing; the caller then fills the buffer it is about to
// write with fill. Versions wrap within 1..255: 0 stays "never
// written".
func (o *oracle) bump(off, n int64) {
	o.each(off, n, func(_, _ int64, u int64) {
		if o.ver[u]++; o.ver[u] == 0 {
			o.ver[u] = 1
		}
	})
}

// fill writes the expected content of [off, off+len(buf)) into buf.
func (o *oracle) fill(buf []byte, off int64) {
	o.each(off, int64(len(buf)), func(lo, hi int64, u int64) {
		fillPat(buf[lo-off:hi-off], o.key, lo, uint32(o.ver[u]))
	})
}

// check reports whether buf is the expected content of
// [off, off+len(buf)).
func (o *oracle) check(buf []byte, off int64) bool {
	ok := true
	o.each(off, int64(len(buf)), func(lo, hi int64, u int64) {
		ok = ok && checkPat(buf[lo-off:hi-off], o.key, lo, uint32(o.ver[u]))
	})
	return ok
}

// sharedOracle tracks a file one client writes while another reads it:
// per 4KiB block, the version whose write has started and the version
// whose write (and fsync) has returned. A coherent read that began
// after done = d and ended before started = s must see one version in
// [d, s].
type sharedOracle struct {
	key     uint64
	started []atomic.Uint32
	done    []atomic.Uint32
}

func newSharedOracle(key uint64, blocks int) *sharedOracle {
	o := &sharedOracle{key: key, started: make([]atomic.Uint32, blocks), done: make([]atomic.Uint32, blocks)}
	for i := range o.started {
		o.started[i].Store(1)
		o.done[i].Store(1)
	}
	return o
}

// checkWindow reports whether buf holds block blk at one version in
// [lo, hi].
func (o *sharedOracle) checkWindow(buf []byte, blk int, lo, hi uint32) bool {
	for v := lo; v <= hi; v++ {
		if checkPat(buf, o.key, int64(blk)*blockSize, v) {
			return true
		}
	}
	return false
}
