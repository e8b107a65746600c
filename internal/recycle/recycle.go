// Package recycle keeps the slice storage one owner outgrew or let go of
// for the next owner's growth. A file system that creates and deletes
// files at a steady rate grows the same small lists over and over — a
// file's extent records, its lock's calendars — and each dies with its
// owner; handed back here, the next file's growth reuses it instead of
// allocating.
//
// Storage is kept in power-of-two capacity classes, zeroed as it comes
// back, and bounded by bytes per class: a class keeps released storage
// until it holds classBytes of it and lets the rest go to the collector,
// so small classes keep many buffers, large ones few, and a buffer larger
// than classBytes is never kept. A Pool retains at most about classBytes
// times the number of classes its element size admits. A slice growing
// past those classes grows as append grows it: doubling a long-lived
// large list would only add slack the pool never takes back.
package recycle

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// classBytes bounds the storage one capacity class retains.
const classBytes = 8 << 10

// classes is one past the largest class any element size can use: a
// buffer of 1<<classes elements is over classBytes even at one byte each.
const classes = 14

// Pool holds released slice storage for reuse. The zero value is an empty
// pool, and a nil *Pool recycles nothing: Grow allocates, Put drops. It is
// safe for concurrent use.
type Pool[T any] struct {
	mu   sync.Mutex
	free [classes][][]T // class k: capacities in [1<<k, 2<<k)
	held [classes]int   // bytes of storage each class holds
}

// Grow returns s with room for at least one more element: s itself while
// it has room, otherwise s's elements in new storage, and s's own storage
// goes back to the pool. Storage of a class the pool keeps is twice s's
// capacity, taken from the pool when it has some; past those classes, and
// from a nil pool, it grows as append grows a slice.
func (p *Pool[T]) Grow(s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	n := max(2*cap(s), 1)
	k := bits.Len(uint(n - 1)) // the smallest class whose every buffer holds n
	if p == nil || k >= classes || sizeOf[T]()<<k > classBytes {
		g := slices.Grow(s, 1)
		p.Put(s)
		return g
	}
	var g []T
	p.mu.Lock()
	if l := len(p.free[k]); l > 0 {
		g = p.free[k][l-1]
		p.free[k][l-1] = nil
		p.free[k] = p.free[k][:l-1]
		p.held[k] -= cap(g) * sizeOf[T]()
	}
	p.mu.Unlock()
	if g == nil {
		g = make([]T, 0, 1<<k)
	}
	g = append(g, s...)
	p.Put(s)
	return g
}

// Put hands s's storage back to the pool; the caller must not use s, or
// any slice sharing its array, again.
func (p *Pool[T]) Put(s []T) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.putLocked(s)
	p.mu.Unlock()
}

// putLocked keeps s's storage, zeroed, if its class has room for it.
// Caller holds p.mu.
func (p *Pool[T]) putLocked(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	b := c * sizeOf[T]()
	if k >= classes || p.held[k]+b > classBytes {
		return
	}
	s = s[:c]
	clear(s)
	p.free[k] = append(p.free[k], s[:0])
	p.held[k] += b
}

// Held reports the bytes of storage the pool retains (tests).
func (p *Pool[T]) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, b := range p.held {
		n += b
	}
	return n
}

func sizeOf[T any]() int {
	var v T
	return max(int(unsafe.Sizeof(v)), 1)
}
