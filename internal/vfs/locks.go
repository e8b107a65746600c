// Per-inode locking: the VFS inode rwsem plus a byte-range lock table.
//
// The paper's WineFS leans on the kernel VFS holding an exclusive per-inode
// lock around metadata operations ("An inode can only be locked by one
// logical CPU at a time", §3.4). A faithful concurrency model needs the
// rest of the kernel's behaviour too: lookups and reads take the inode lock
// *shared*, and data writes to an already-allocated region only exclude
// writers touching overlapping byte ranges — this is what lets per-CPU
// journals and allocation groups actually run in parallel instead of
// serialising every operation on one mutex.
//
// Three lock modes, in decreasing strength:
//
//	Lock       exclusive whole-inode — metadata and size-changing ops
//	LockRange  shared whole-inode + exclusive [off, off+n) byte range —
//	           in-place data writes; disjoint ranges proceed in parallel
//	RLock      shared whole-inode — reads, stats, directory listings
//
// Every acquisition returns a LockHandle — a value, so taking a lock costs
// no allocation — that must be released with Unlock. The handle pins the
// inode's lock object, so Drop (called when an inode is freed) can remove
// the table entry while holders still exist: a reused inode number gets a
// fresh lock object, and stale holders release the orphaned one harmlessly.
//
// A file system that keeps an in-memory inode asks the table for the
// inode's lock once (Inode) and locks through that token afterwards, so
// the table's own mutex and map are paid once per inode lifetime, not per
// operation; Lock by number remains for callers that hold nothing but the
// number.
package vfs

import (
	"sync"

	"repro/internal/sim"
)

// LockTable provides per-inode reader/writer and byte-range virtual-time
// locks. It is safe for concurrent use.
type LockTable struct {
	mu    sync.Mutex
	locks map[uint64]*InodeLock
	// spans is the storage the locks' calendars grow from; a dropped
	// lock's calendars go back to it for the next inode's.
	spans sim.CalendarPool
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[uint64]*InodeLock)}
}

// InodeLock is one inode's lock state: the whole-inode rwsem plus the
// byte-range writer table layered under its shared side. The table hands
// it out (Inode); it stays valid, and private to its holders, after Drop.
type InodeLock struct {
	rw sim.RWResource

	rmu    sync.Mutex  // guards the fields below
	rcond  *sync.Cond  // signalled when an active range is released; made by the first waiter
	active []byteRange // ranges held right now (host level)
	// booked holds the newest maxRangeOccs past range occupations (the
	// virtual-time calendar), as a ring once full: next is the oldest
	// entry, the one the next booking overwrites (clocks only move
	// forward). bookedEnd is the latest `until` ever booked.
	booked    []rangeOcc
	next      int
	bookedEnd int64
}

type byteRange struct{ off, end int64 }

func (a byteRange) overlaps(b byteRange) bool { return a.off < b.end && b.off < a.end }

// rangeOcc is a booked range occupation: bytes [off, end) were exclusively
// held over virtual interval [start, until).
type rangeOcc struct {
	byteRange
	start, until int64
}

// maxRangeOccs bounds the per-inode range calendar.
const maxRangeOccs = 256

// lockMode records how a handle was acquired, so Unlock releases exactly
// what Lock took.
type lockMode uint8

const (
	modeNone lockMode = iota // the zero handle holds nothing
	modeExclusive
	modeShared
	modeRange
)

// LockHandle is a held lock. Release it with Unlock, passing the same ctx
// family (any ctx works; the releasing thread's clock seals the
// occupation). The zero LockHandle holds nothing and its Unlock is a
// no-op.
type LockHandle struct {
	l        *InodeLock
	mode     lockMode
	inoStart int64 // shared-side acquisition instant (shared and range modes)
	r        byteRange
	rngStart int64 // range acquisition instant
}

// Inode returns ino's lock object, creating it on first use.
func (lt *LockTable) Inode(ino uint64) *InodeLock {
	lt.mu.Lock()
	l := lt.locks[ino]
	if l == nil {
		l = &InodeLock{}
		l.rw.SetPool(&lt.spans)
		lt.locks[ino] = l
	}
	lt.mu.Unlock()
	return l
}

// Lock acquires the inode exclusively; see InodeLock.Lock.
func (lt *LockTable) Lock(ctx *sim.Ctx, ino uint64) LockHandle { return lt.Inode(ino).Lock(ctx) }

// Lock acquires the inode exclusively, advancing ctx past every booked
// occupation (shared, exclusive, or range) that covers its instant.
func (l *InodeLock) Lock(ctx *sim.Ctx) LockHandle {
	l.rw.Lock(ctx)
	return LockHandle{l: l, mode: modeExclusive}
}

// RLock acquires the inode shared: concurrent RLock holders (and range
// writers) overlap freely; exclusive holders are waited for.
func (l *InodeLock) RLock(ctx *sim.Ctx) LockHandle {
	start := l.rw.RLock(ctx)
	return LockHandle{l: l, mode: modeShared, inoStart: start}
}

// LockRange acquires the inode shared plus bytes [off, off+n) exclusively:
// whole-inode exclusive holders and overlapping ranges are waited for;
// disjoint ranges proceed in parallel. n <= 0 locks a single byte at off.
func (l *InodeLock) LockRange(ctx *sim.Ctx, off, n int64) LockHandle {
	if n <= 0 {
		n = 1
	}
	inoStart := l.rw.RLock(ctx)
	r := byteRange{off, off + n}

	l.rmu.Lock()
	for l.overlapsActive(r) {
		// A conflicting range is held right now: block at the host level
		// until its holder books its occupation, then recompute.
		if l.rcond == nil {
			l.rcond = sync.NewCond(&l.rmu)
		}
		l.rcond.Wait()
	}
	t := l.skipBookedLocked(r, ctx.Now())
	l.active = append(l.active, r)
	l.rmu.Unlock()

	if waited := t - ctx.Now(); waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
	ctx.AdvanceTo(t)
	return LockHandle{l: l, mode: modeRange, inoStart: inoStart, r: r, rngStart: t}
}

// Unlock releases the handle, booking the occupation on the corresponding
// virtual-time calendar.
func (h LockHandle) Unlock(ctx *sim.Ctx) {
	switch h.mode {
	case modeExclusive:
		h.l.rw.Unlock(ctx)
	case modeShared:
		h.l.rw.RUnlock(ctx, h.inoStart)
	case modeRange:
		l := h.l
		l.rmu.Lock()
		if now := ctx.Now(); now > h.rngStart {
			l.bookLocked(rangeOcc{h.r, h.rngStart, now})
		}
		for i, a := range l.active {
			if a == h.r {
				l.active = append(l.active[:i], l.active[i+1:]...)
				break
			}
		}
		if l.rcond != nil {
			l.rcond.Broadcast()
		}
		l.rmu.Unlock()
		l.rw.RUnlock(ctx, h.inoStart)
	}
}

// bookLocked records a range occupation, over the oldest one once the
// calendar is full. Caller holds l.rmu.
func (l *InodeLock) bookLocked(o rangeOcc) {
	if len(l.booked) < maxRangeOccs {
		l.booked = append(l.booked, o)
	} else {
		l.booked[l.next] = o
		l.next = (l.next + 1) % maxRangeOccs
	}
	if o.until > l.bookedEnd {
		l.bookedEnd = o.until
	}
}

// overlapsActive reports whether any currently-held range overlaps r.
// Caller holds l.rmu.
func (l *InodeLock) overlapsActive(r byteRange) bool {
	for _, a := range l.active {
		if a.overlaps(r) {
			return true
		}
	}
	return false
}

// skipBookedLocked returns the first instant at or after t that is past
// every booked occupation overlapping r in bytes. An acquirer queues behind
// ALL existing overlapping bookings — not just those containing t — because
// its own occupation's length is unknown until release: letting a thread
// whose clock lags start in a gap between bookings would let its occupation
// overlap the next booking, and conflicting writes would overlap in virtual
// time. Caller holds l.rmu.
func (l *InodeLock) skipBookedLocked(r byteRange, t int64) int64 {
	if t >= l.bookedEnd {
		return t // at or past every booking there has been: nothing to scan
	}
	for _, o := range l.booked {
		if o.overlaps(r) && o.until > t {
			t = o.until
		}
	}
	return t
}

// Drop removes the lock entry for a freed inode and hands its calendars'
// storage back for the next inode's. Current holders keep their (now
// orphaned) lock object and release it normally, booking into storage of
// the orphan's own (sim.RWResource.Recycle); the next locker of a reused
// inode number gets a fresh entry.
func (lt *LockTable) Drop(ino uint64) {
	lt.mu.Lock()
	l := lt.locks[ino]
	delete(lt.locks, ino)
	lt.mu.Unlock()
	if l != nil {
		l.rw.Recycle()
	}
}

// Len reports the number of live lock entries (leak tests).
func (lt *LockTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.locks)
}
