package vfs

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// Overlapping range writers serialise in virtual time; their waits land in
// LockWaitNS.
func TestLockRangeOverlappingSerialize(t *testing.T) {
	lt := NewLockTable()
	a := sim.NewCtx(1, 0)
	b := sim.NewCtx(2, 1)

	h := lt.Inode(7).LockRange(a, 0, 4096)
	a.Advance(1000)
	h.Unlock(a) // [0,4096) held over [0,1000)

	h = lt.Inode(7).LockRange(b, 2048, 4096) // overlaps, arrives at 0
	if b.Now() != 1000 {
		t.Fatalf("overlapping range writer acquired at %d, want 1000", b.Now())
	}
	if b.Counters.LockWaitNS != 1000 {
		t.Fatalf("LockWaitNS=%d, want 1000", b.Counters.LockWaitNS)
	}
	h.Unlock(b)
}

// Disjoint range writers on the same inode do not serialise.
func TestLockRangeDisjointParallel(t *testing.T) {
	lt := NewLockTable()
	a := sim.NewCtx(1, 0)
	b := sim.NewCtx(2, 1)

	h := lt.Inode(7).LockRange(a, 0, 4096)
	a.Advance(1000)
	h.Unlock(a)

	h = lt.Inode(7).LockRange(b, 4096, 4096) // adjacent but disjoint
	if b.Now() != 0 || b.Counters.LockWaitNS != 0 {
		t.Fatalf("disjoint range writer waited: now=%d wait=%d", b.Now(), b.Counters.LockWaitNS)
	}
	h.Unlock(b)
}

// A whole-inode exclusive lock excludes range writers in both directions.
func TestLockExclusiveVsRange(t *testing.T) {
	lt := NewLockTable()
	w := sim.NewCtx(1, 0)
	r := sim.NewCtx(2, 1)

	h := lt.Lock(w, 7)
	w.Advance(1000)
	h.Unlock(w) // exclusive over [0,1000)

	h = lt.Inode(7).LockRange(r, 1<<20, 4096) // any range waits for the inode lock
	if r.Now() != 1000 {
		t.Fatalf("range writer acquired at %d under exclusive lock, want 1000", r.Now())
	}
	r.Advance(500)
	h.Unlock(r) // range holder's shared occupation books [1000,1500)

	w2 := sim.NewCtx(3, 2)
	w2.Advance(1200)
	h = lt.Lock(w2, 7)
	if w2.Now() != 1500 {
		t.Fatalf("exclusive lock acquired at %d under range writer, want 1500", w2.Now())
	}
	h.Unlock(w2)
}

// Shared readers overlap with each other and with range writers, but wait
// for exclusive holders.
func TestRLockSemantics(t *testing.T) {
	lt := NewLockTable()
	w := sim.NewCtx(1, 0)
	h := lt.Lock(w, 7)
	w.Advance(1000)
	h.Unlock(w)

	a := sim.NewCtx(2, 1)
	ha := lt.Inode(7).RLock(a)
	if a.Now() != 1000 {
		t.Fatalf("reader acquired at %d under exclusive lock, want 1000", a.Now())
	}
	a.Advance(800)

	b := sim.NewCtx(3, 2)
	b.Advance(1100)
	hb := lt.Inode(7).RLock(b) // inside a's read — readers share
	if b.Now() != 1100 {
		t.Fatalf("second reader waited: now=%d, want 1100", b.Now())
	}
	hb.Unlock(b)
	ha.Unlock(a)
}

// Drop removes the entry while a holder exists; the holder's release is
// harmless and a reused inode number starts with a fresh lock.
func TestDropWhileHeld(t *testing.T) {
	lt := NewLockTable()
	ctx := sim.NewCtx(1, 0)
	h := lt.Lock(ctx, 7)
	ctx.Advance(5000)
	lt.Drop(7)
	if lt.Len() != 0 {
		t.Fatalf("Len=%d after Drop, want 0", lt.Len())
	}
	// A fresh locker of the reused number must not see the old occupation —
	// and must not block on the still-held old object.
	fresh := sim.NewCtx(2, 1)
	h2 := lt.Lock(fresh, 7)
	if fresh.Now() != 0 {
		t.Fatalf("reused ino inherited old lock state: now=%d", fresh.Now())
	}
	h2.Unlock(fresh)
	h.Unlock(ctx) // stale holder releases the orphaned object
	if lt.Len() != 1 {
		t.Fatalf("Len=%d, want 1 (the reused entry)", lt.Len())
	}
}

// Drop hands the dropped lock's calendar storage to the next inode's. A
// holder that releases the orphan afterwards must book into storage of
// the orphan's own: here the reused number's new lock has grown into the
// very array the old one had, and the old holder's late booking must not
// land in it.
func TestUnlockAfterDropMissesTheReusedLock(t *testing.T) {
	lt := NewLockTable()
	old := sim.NewCtx(1, 0)
	book := func(ctx *sim.Ctx, n int) { // n disjoint 100 ns occupations
		for i := 0; i < n; i++ {
			h := lt.Lock(ctx, 7)
			ctx.Advance(100)
			h.Unlock(ctx)
			ctx.Advance(100)
		}
	}
	book(old, 3) // three spans in an array of four
	h := lt.Lock(old, 7)
	lt.Drop(7)

	fresh := sim.NewCtx(2, 1)
	fresh.Advance(10_000)
	book(fresh, 4)            // grows through arrays of one, two and four: the last is the old lock's
	want := fresh.Now() - 100 // the end of the new lock's last occupation
	old.Advance(50)
	h.Unlock(old) // books [600, 650) on the orphan
	// admit locks the new lock at clock at and reports when it was
	// admitted; an empty occupation books nothing.
	admit := func(at int64) int64 {
		ctx := sim.NewCtx(3, 2)
		ctx.Advance(at)
		lt.Lock(ctx, 7).Unlock(ctx)
		return ctx.Now()
	}
	if got := admit(610); got != 610 {
		t.Fatalf("the orphan's release reached the reused number's lock: a locker at 610 was admitted at %d", got)
	}
	if got := admit(want - 50); got != want {
		t.Fatalf("a locker inside the new lock's last occupation was admitted at %d, want %d", got, want)
	}
}

// The other ordering: a thread that took the lock object before Drop — it
// resolved the file before the unlink removed it — waits behind the
// dropping holder's occupation, which that holder books after Drop.
func TestWaiterOnDroppedLockQueuesBehindItsHolder(t *testing.T) {
	lt := NewLockTable()
	unlinker := sim.NewCtx(1, 0)
	l := lt.Inode(7)
	h := l.Lock(unlinker)
	unlinker.Advance(500)
	lt.Drop(7)
	waiter := sim.NewCtx(2, 1)
	waiter.Advance(100) // inside the unlinker's occupation
	done := make(chan struct{})
	go func() {
		l.Lock(waiter).Unlock(waiter) // blocks on the host until h is released
		close(done)
	}()
	h.Unlock(unlinker)
	<-done
	if waiter.Now() != 500 {
		t.Fatalf("the waiter was admitted at %d, want 500 (the end of the unlinker's occupation)", waiter.Now())
	}
}

// The table must not grow across create/delete churn when Drop is called.
func TestLockTableNoLeak(t *testing.T) {
	lt := NewLockTable()
	ctx := sim.NewCtx(1, 0)
	for i := 0; i < 1000; i++ {
		ino := uint64(100 + i)
		h := lt.Lock(ctx, ino)
		h.Unlock(ctx)
		lt.Drop(ino)
	}
	if lt.Len() != 0 {
		t.Fatalf("lock table leaked %d entries across churn", lt.Len())
	}
}

// Host-level stress under -race: concurrent readers, range writers and
// exclusive writers on one inode must neither race nor deadlock.
func TestLockTableConcurrencyStress(t *testing.T) {
	lt := NewLockTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := sim.NewCtx(10+g, g)
			for i := 0; i < 200; i++ {
				switch (g + i) % 3 {
				case 0:
					h := lt.Inode(7).RLock(ctx)
					ctx.Advance(50)
					h.Unlock(ctx)
				case 1:
					off := int64((g%4)*8192 + i%2*4096)
					h := lt.Inode(7).LockRange(ctx, off, 4096)
					ctx.Advance(80)
					h.Unlock(ctx)
				default:
					h := lt.Lock(ctx, 7)
					ctx.Advance(30)
					h.Unlock(ctx)
				}
			}
		}(g)
	}
	wg.Wait()
}
