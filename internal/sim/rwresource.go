package sim

import (
	"sort"
	"sync"

	"repro/internal/recycle"
)

// RWResource models a shared serialisation point that distinguishes shared
// (reader) from exclusive (writer) occupations in virtual time — the VFS
// inode rwsem. Readers overlap freely with other readers; writers exclude
// everyone. Like Resource, contention is a function of virtual-time overlap
// only: occupations are booked on calendars, and an acquiring thread's
// clock jumps past conflicting bookings that contain its current instant,
// with the jump attributed to Counters.LockWaitNS.
//
// Occupation durations are not known in advance (the caller does work
// between acquire and release), so a host-level sync.RWMutex is held across
// each occupation. That serialises conflicting *goroutines* so the calendar
// stays consistent — by the time an acquirer books its start, every
// conflicting occupation has already been booked — while conflict-free
// goroutines (reader/reader) proceed in parallel on the host too. Host
// scheduling never advances virtual clocks, so this does not distort the
// simulated timeline; sync.RWMutex's writer preference also bounds writer
// starvation at the host level.
//
// RWResource is safe for concurrent use by multiple goroutines.
type RWResource struct {
	host sync.RWMutex // held between acquire and release

	mu sync.Mutex // guards the calendars
	// wr and rd are merged unions of past exclusive and shared occupation
	// intervals. Writers skip past both; readers skip past wr only.
	wr     calendar
	rd     calendar
	pool   *recycle.Pool[span] // what wr and rd grow from (SetPool); nil allocates
	wstart int64               // booked start of the in-progress exclusive occupation
	// orphan is wr's storage after Recycle: the exclusive holder that
	// releases after it (the unlinker whose unlink dropped the lock) books
	// its occupation here, in the resource's own memory, not in storage
	// taken from the pool for good.
	orphan [1]span
}

// CalendarPool is calendar storage shared by the RWResources that come and
// go with the objects they lock: a resource's calendars grow from it and
// go back to it when the resource is recycled. The zero value is an empty
// pool; it is safe for concurrent use.
type CalendarPool struct{ p recycle.Pool[span] }

// SetPool makes r's calendars grow from p's storage and Recycle hand
// theirs back to it. Call it before r is first used.
func (r *RWResource) SetPool(p *CalendarPool) { r.pool = &p.p }

// Recycle forgets every booking and hands the calendars' storage to the
// pool SetPool named. The resource stays usable: occupations booked after
// it start fresh calendars, in storage of their own (the first exclusive
// one in r.orphan, the rest allocated), so a holder that releases after
// Recycle never writes into storage another resource has taken from the
// pool since, and an acquirer that waited for that holder still queues
// behind its occupation. Call it when what r locks is gone, so that no
// later acquirer needs r's past.
func (r *RWResource) Recycle() {
	r.mu.Lock()
	r.wr.recycle(r.pool)
	r.rd.recycle(r.pool)
	r.wr.buf = r.orphan[:0]
	r.pool = nil // so that r.orphan never reaches the pool
	r.mu.Unlock()
}

// Lock begins an exclusive occupation: the thread's clock jumps to the
// first instant not covered by any booked occupation (shared or exclusive),
// and conflicting goroutines block at the host level until Unlock.
func (r *RWResource) Lock(ctx *Ctx) {
	r.host.Lock()
	r.mu.Lock()
	t := ctx.now
	for {
		t2 := skipBusy(r.wr.live(), t)
		t2 = skipBusy(r.rd.live(), t2)
		if t2 == t {
			break
		}
		t = t2
	}
	r.wstart = t
	r.mu.Unlock()
	if waited := t - ctx.now; waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
	ctx.now = t
}

// Unlock ends an exclusive occupation, booking [lock instant, now) on the
// exclusive calendar.
func (r *RWResource) Unlock(ctx *Ctx) {
	r.mu.Lock()
	if ctx.now > r.wstart {
		r.wr.insertUnion(span{r.wstart, ctx.now}, r.pool)
	}
	r.mu.Unlock()
	r.host.Unlock()
}

// RLock begins a shared occupation: the clock jumps past exclusive bookings
// only (readers never wait for readers). The returned start must be handed
// back to RUnlock — unlike the exclusive side, many shared occupations can
// be in flight at once, so the resource cannot hold a single start field.
func (r *RWResource) RLock(ctx *Ctx) (start int64) {
	r.host.RLock()
	r.mu.Lock()
	t := ctx.now
	for {
		t2 := skipBusy(r.wr.live(), t)
		if t2 == t {
			break
		}
		t = t2
	}
	r.mu.Unlock()
	if waited := t - ctx.now; waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
	ctx.now = t
	return t
}

// RUnlock ends a shared occupation started at start, booking it on the
// shared calendar so later writers queue behind it.
func (r *RWResource) RUnlock(ctx *Ctx, start int64) {
	r.mu.Lock()
	if ctx.now > start {
		r.rd.insertUnion(span{start, ctx.now}, r.pool)
	}
	r.mu.Unlock()
	r.host.RUnlock()
}

// skipBusy returns the end of the span containing t, or t if no span does.
// spans must be sorted and disjoint.
func skipBusy(spans []span, t int64) int64 {
	n := len(spans)
	if n == 0 || t >= spans[n-1].end {
		// At or past the last booking: clocks move forward, so this is the
		// common case, and it costs no search of a calendar that may hold
		// maxSpans intervals the caller is already beyond.
		return t
	}
	i := sort.Search(n, func(i int) bool { return spans[i].end > t })
	if spans[i].start <= t {
		return spans[i].end
	}
	return t
}

// insertUnion inserts s into the calendar, merging it with any overlapping
// or adjacent intervals; a full array grows from pool.
func (c *calendar) insertUnion(s span, pool *recycle.Pool[span]) {
	spans := c.live()
	if n := len(spans); n == 0 || spans[n-1].end < s.start {
		// Past the frontier — the common case, since clocks move forward.
		c.insertAt(n, s, pool)
		return
	}
	// First span whose end reaches s.start: everything before it is
	// strictly earlier and untouched.
	lo := sort.Search(len(spans), func(i int) bool { return spans[i].end >= s.start })
	hi := lo
	for hi < len(spans) && spans[hi].start <= s.end {
		if spans[hi].start < s.start {
			s.start = spans[hi].start
		}
		if spans[hi].end > s.end {
			s.end = spans[hi].end
		}
		hi++
	}
	if hi > lo {
		// s swallows spans[lo:hi]; overwrite the first and close the gap.
		spans[lo] = s
		c.remove(lo+1, hi)
		return
	}
	c.insertAt(lo, s, pool) // into a gap
}
