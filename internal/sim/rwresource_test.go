package sim

import "testing"

// Two readers overlapping in virtual time share the resource: neither
// waits, even though their occupations overlap.
func TestRWResourceReadersShare(t *testing.T) {
	var r RWResource
	a := NewCtx(1, 0)
	b := NewCtx(2, 1)

	sa := r.RLock(a)
	a.Advance(1000)
	r.RUnlock(a, sa)

	// b starts inside a's occupation but is a reader too.
	b.Advance(500)
	sb := r.RLock(b)
	if b.Now() != 500 {
		t.Fatalf("reader waited: now=%d, want 500", b.Now())
	}
	b.Advance(1000)
	r.RUnlock(b, sb)
	if a.Counters.LockWaitNS != 0 || b.Counters.LockWaitNS != 0 {
		t.Fatalf("reader lock wait: a=%d b=%d, want 0", a.Counters.LockWaitNS, b.Counters.LockWaitNS)
	}
}

// A writer arriving inside a booked reader occupation queues behind it and
// the wait is attributed to LockWaitNS.
func TestRWResourceWriterWaitsForReaders(t *testing.T) {
	var r RWResource
	a := NewCtx(1, 0)
	w := NewCtx(2, 1)

	sa := r.RLock(a)
	a.Advance(1000)
	r.RUnlock(a, sa) // reader occupied [0, 1000)

	w.Advance(400)
	r.Lock(w)
	if w.Now() != 1000 {
		t.Fatalf("writer acquired at %d, want 1000", w.Now())
	}
	if w.Counters.LockWaitNS != 600 {
		t.Fatalf("writer LockWaitNS=%d, want 600", w.Counters.LockWaitNS)
	}
	w.Advance(100)
	r.Unlock(w)
}

// A reader arriving inside a booked writer occupation queues behind it; a
// reader arriving before it does not (calendar semantics: at that instant
// the resource really was free).
func TestRWResourceReaderWaitsForWriter(t *testing.T) {
	var r RWResource
	w := NewCtx(1, 0)
	w.Advance(1000)
	r.Lock(w)
	w.Advance(500)
	r.Unlock(w) // writer occupied [1000, 1500)

	in := NewCtx(2, 1)
	in.Advance(1200)
	s := r.RLock(in)
	if in.Now() != 1500 || in.Counters.LockWaitNS != 300 {
		t.Fatalf("reader inside writer span: now=%d wait=%d, want 1500/300", in.Now(), in.Counters.LockWaitNS)
	}
	r.RUnlock(in, s)

	before := NewCtx(3, 2)
	before.Advance(100)
	s = r.RLock(before)
	if before.Now() != 100 {
		t.Fatalf("reader before writer span waited: now=%d, want 100", before.Now())
	}
	r.RUnlock(before, s)
}

// Writers exclude each other exactly like Resource.
func TestRWResourceWritersSerialize(t *testing.T) {
	var r RWResource
	a := NewCtx(1, 0)
	b := NewCtx(2, 1)
	r.Lock(a)
	a.Advance(700)
	r.Unlock(a)

	r.Lock(b) // arrives at 0, inside a's [0, 700)
	if b.Now() != 700 {
		t.Fatalf("second writer acquired at %d, want 700", b.Now())
	}
	r.Unlock(b)
}

// A writer's wait is bounded by the bookings present when it acquires: it
// skips only intervals containing its instant, so a long history of
// disjoint reader occupations costs nothing.
func TestRWResourceWriterStarvationBound(t *testing.T) {
	var r RWResource
	var maxEnd int64
	for i := 0; i < 20; i++ {
		rd := NewCtx(10+i, 0)
		rd.Advance(int64(i) * 50) // overlapping chain: [0,100) [50,150) ...
		s := r.RLock(rd)
		rd.Advance(100)
		r.RUnlock(rd, s)
		if rd.Now() > maxEnd {
			maxEnd = rd.Now()
		}
	}
	w := NewCtx(1, 0)
	r.Lock(w)
	defer r.Unlock(w)
	if w.Now() > maxEnd {
		t.Fatalf("writer admitted at %d, after every reader end %d", w.Now(), maxEnd)
	}
	if w.Counters.LockWaitNS != w.Now() {
		t.Fatalf("wait accounting: LockWaitNS=%d, clock=%d", w.Counters.LockWaitNS, w.Now())
	}
}

func TestInsertUnion(t *testing.T) {
	var c calendar
	c.insertUnion(span{10, 20}, nil)
	c.insertUnion(span{30, 40}, nil)
	c.insertUnion(span{15, 35}, nil) // bridges both
	if s := c.live(); len(s) != 1 || s[0] != (span{10, 40}) {
		t.Fatalf("union = %v, want [{10 40}]", s)
	}
	c.insertUnion(span{40, 50}, nil) // adjacent merges
	if s := c.live(); len(s) != 1 || s[0] != (span{10, 50}) {
		t.Fatalf("adjacent union = %v, want [{10 50}]", s)
	}
	c.insertUnion(span{60, 70}, nil)
	s := c.live()
	if len(s) != 2 {
		t.Fatalf("disjoint union = %v, want 2 spans", s)
	}
	if got := skipBusy(s, 65); got != 70 {
		t.Fatalf("skipBusy(65) = %d, want 70", got)
	}
	if got := skipBusy(s, 55); got != 55 {
		t.Fatalf("skipBusy(55) = %d, want 55", got)
	}
}
