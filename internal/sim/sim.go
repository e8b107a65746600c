// Package sim provides the deterministic virtual-time substrate that every
// component of the reproduction runs on.
//
// Each simulated thread owns a Ctx carrying a nanosecond-resolution virtual
// clock and a pointer to its performance counters. Costs (persistent-memory
// accesses, page faults, TLB walks, journal writes, lock waits) advance the
// clock; nothing in the repository consults wall-clock time for results.
//
// Shared hardware and software resources — a file system's journal, a
// device's write bandwidth, a VFS inode lock — are modelled by Resource: a
// mutual-exclusion region with a busy-until timestamp in virtual time.
// When a thread acquires a Resource its clock first jumps forward to the
// moment the resource frees up, so contention delays emerge naturally and
// deterministically (given a deterministic arrival order) rather than from
// host scheduling.
package sim

import (
	"sort"
	"sync"

	"repro/internal/perf"
	"repro/internal/recycle"
	"repro/internal/trace"
)

// Ctx is the per-simulated-thread execution context. It is not safe for
// concurrent use; each goroutine driving simulated work must own its own Ctx.
type Ctx struct {
	// Thread is a unique identifier for the simulated thread.
	Thread int
	// CPU is the logical CPU the thread currently runs on. File systems with
	// per-CPU structures (WineFS, NOVA) key their pools off this value.
	CPU int
	// Counters accumulates performance events for this thread.
	Counters *perf.Counters
	// Trace is the thread's span stack; nil (the default) disables tracing
	// entirely, leaving only a pointer test on the instrumented paths.
	// Spans observe the virtual clock and counters but never advance them.
	Trace *trace.Context

	now int64
}

// NewCtx returns a context for simulated thread id pinned to the given CPU,
// with fresh counters.
func NewCtx(thread, cpu int) *Ctx {
	return &Ctx{
		Thread:   thread,
		CPU:      cpu,
		Counters: &perf.Counters{},
	}
}

// Now returns the thread's current virtual time in nanoseconds.
func (c *Ctx) Now() int64 { return c.now }

// Advance moves the thread's virtual clock forward by ns nanoseconds.
// Negative advances are ignored: virtual time never runs backwards.
func (c *Ctx) Advance(ns int64) {
	if ns > 0 {
		c.now += ns
	}
}

// AdvanceTo moves the clock forward to t if t is in the future.
func (c *Ctx) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero and clears counters. Used between
// measurement phases of an experiment.
func (c *Ctx) Reset() {
	c.now = 0
	c.Counters.Reset()
}

// Syscall charges one syscall entry: the counter and its virtual-time cost.
// Every vfs.FS implementation's operation preamble funnels through here so
// syscall time lands in one place (Counters.SyscallNS) for span breakdowns.
func (c *Ctx) Syscall(ns int64) {
	c.Counters.Syscalls++
	c.Counters.SyscallNS += ns
	c.Advance(ns)
}

// breakdown snapshots the counter fields that span breakdowns report.
func (c *Ctx) breakdown() trace.Breakdown {
	return trace.Breakdown{
		SyscallNS:  c.Counters.SyscallNS,
		LockWaitNS: c.Counters.LockWaitNS,
		JournalNS:  c.Counters.JournalNS,
		CopyNS:     c.Counters.CopyNS,
		FaultNS:    c.Counters.FaultNS,
		ZeroNS:     c.Counters.ZeroNS,
	}
}

// StartSpan opens a traced span at the current virtual time, snapshotting
// the thread's cost counters. Returns nil — at the cost of one pointer test
// — when tracing is disabled; EndSpan ignores a nil span, so call sites
// need no guards of their own.
func (c *Ctx) StartSpan(name string) *trace.Span {
	if c.Trace == nil {
		return nil
	}
	sp := c.Trace.Start(name, c.now)
	sp.Mark = c.breakdown()
	return sp
}

// EndSpan seals sp at the current virtual time, attributing the counter
// deltas since StartSpan as the span's cost breakdown, and emits it.
func (c *Ctx) EndSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.Cost = c.breakdown().Sub(sp.Mark)
	c.Trace.End(sp, c.now)
}

// Resource models a shared serialisation point (a journal, a lock, a
// bandwidth-limited device port) in virtual time.
//
// Occupations are booked on a calendar of busy intervals: a thread asking
// to occupy the resource receives the earliest free interval at or after
// its *own* virtual time. This matters because simulated threads run on
// host goroutines whose scheduling is unrelated to virtual time — a thread
// whose clock reads 5µs must not queue behind an occupation another thread
// booked at 500µs, because at instant 5µs the resource really was free.
// Calendar booking makes contention a function of virtual-time overlap
// only, independent of host scheduling, and therefore deterministic in
// distribution.
//
// Resource is safe for concurrent use by multiple goroutines.
type Resource struct {
	mu   sync.Mutex
	cal  calendar            // busy intervals
	pool *recycle.Pool[span] // what cal grows from; nil allocates
	// acquireStart is the booked start of an in-progress Acquire/Release
	// occupation (the real mutex stays locked in between).
	acquireStart int64
}

type span struct{ start, end int64 }

// maxSpans bounds calendar memory; the oldest intervals are dropped first
// (live threads' clocks only move forward, so the distant past is never
// booked again in practice).
const maxSpans = 1024

// calendar is a sorted list of disjoint busy intervals that keeps the
// newest maxSpans of them. The live intervals are buf[head:]: dropping the
// oldest advances head, and when the backing array fills the live part
// slides back to its front. Below the bound the array grows in storage
// from the owner's pool, to which the outgrown array goes back; at the
// bound the calendar is a window sliding over one array of up to
// 2×maxSpans spans and allocates no more. The zero value is an empty
// calendar.
type calendar struct {
	buf  []span
	head int
}

func (c *calendar) live() []span { return c.buf[c.head:] }

// end returns the end of the last interval, 0 for an empty calendar.
func (c *calendar) end() int64 {
	if n := len(c.buf); n > c.head {
		return c.buf[n-1].end
	}
	return 0
}

// insertAt puts s at index i of live() — len(live()) appends — and drops
// the oldest interval if that takes the calendar over its bound. A full
// array grows from pool (nil allocates).
func (c *calendar) insertAt(i int, s span, pool *recycle.Pool[span]) {
	if len(c.buf) == cap(c.buf) {
		if c.head > 0 {
			c.buf = c.buf[:copy(c.buf, c.buf[c.head:])]
			c.head = 0
		} else {
			c.buf = pool.Grow(c.buf)
		}
	}
	c.buf = append(c.buf, s)
	if live := c.buf[c.head:]; i < len(live)-1 {
		copy(live[i+1:], live[i:])
		live[i] = s
	}
	if len(c.buf)-c.head > maxSpans {
		c.head = len(c.buf) - maxSpans
	}
}

// recycle hands the calendar's storage to pool and empties it.
func (c *calendar) recycle(pool *recycle.Pool[span]) {
	pool.Put(c.buf)
	c.buf, c.head = nil, 0
}

// remove drops live()[lo:hi].
func (c *calendar) remove(lo, hi int) {
	c.buf = append(c.buf[:c.head+lo], c.buf[c.head+hi:]...)
}

// bookLocked finds the earliest t >= from such that [t, t+hold) is free,
// inserts the interval, and returns t. Caller holds r.mu.
func (r *Resource) bookLocked(from, hold int64) int64 {
	t := from
	spans := r.cal.live()
	// Fast path: booking at or past the calendar frontier. Threads' clocks
	// mostly move forward, so the overwhelmingly common case appends to (or
	// extends) the final span without a binary search or a copy.
	if n := len(spans); n == 0 || t >= spans[n-1].end {
		if n > 0 && spans[n-1].end == t {
			spans[n-1].end = t + hold
		} else {
			r.cal.insertAt(n, span{t, t + hold}, r.pool)
		}
		return t
	}
	// Find the first span that ends after t.
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > t })
	for i < len(spans) {
		if t+hold <= spans[i].start {
			break // fits in the gap before span i
		}
		if spans[i].end > t {
			t = spans[i].end
		}
		i++
	}
	// Insert [t, t+hold) before index i, merging with neighbours.
	mergePrev := i > 0 && spans[i-1].end == t
	mergeNext := i < len(spans) && t+hold == spans[i].start
	switch {
	case mergePrev && mergeNext:
		spans[i-1].end = spans[i].end
		r.cal.remove(i, i+1)
	case mergePrev:
		spans[i-1].end = t + hold
	case mergeNext:
		spans[i].start = t
	default:
		r.cal.insertAt(i, span{t, t + hold}, r.pool)
	}
	return t
}

// Use occupies the resource for hold nanoseconds at the earliest free
// interval at or after the thread's current time. It advances the thread's
// clock to the end of the occupation and returns the occupation's start.
func (r *Resource) Use(ctx *Ctx, hold int64) (start int64) {
	if hold < 0 {
		hold = 0
	}
	r.mu.Lock()
	start = r.bookLocked(ctx.now, hold)
	r.mu.Unlock()
	if waited := start - ctx.now; waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
	ctx.now = start + hold
	return start
}

// UseQuanta occupies the resource for hold nanoseconds split into
// occupations of at most quantum nanoseconds each, booked back to back
// under one lock acquisition. It is exactly equivalent — same bookings,
// same clock, same LockWaitNS — to calling Use once per quantum, but costs
// one mutex round-trip instead of ceil(hold/quantum): this is the batched
// charging path for bulk device transfers, whose quantum-sliced port
// occupations dominated the per-call engine overhead.
func (r *Resource) UseQuanta(ctx *Ctx, hold, quantum int64) {
	if hold < 1 {
		hold = 1
	}
	if quantum <= 0 || hold <= quantum {
		r.Use(ctx, hold)
		return
	}
	var waited int64
	r.mu.Lock()
	for hold > 0 {
		q := hold
		if q > quantum {
			q = quantum
		}
		start := r.bookLocked(ctx.now, q)
		waited += start - ctx.now
		ctx.now = start + q
		hold -= q
	}
	r.mu.Unlock()
	if waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
}

// Acquire begins an occupation whose duration is not known in advance: the
// thread's clock jumps to the first free instant at or after its current
// time, and the underlying mutex is held until Release, serialising the
// goroutines so the calendar stays consistent.
func (r *Resource) Acquire(ctx *Ctx) {
	r.mu.Lock()
	t := ctx.now
	// At or past the frontier — the common case — nothing can be in the way.
	if t < r.cal.end() {
		spans := r.cal.live()
		i := sort.Search(len(spans), func(i int) bool { return spans[i].end > t })
		for i < len(spans) && spans[i].start <= t {
			t = spans[i].end
			i++
		}
	}
	if waited := t - ctx.now; waited > 0 && ctx.Counters != nil {
		ctx.Counters.LockWaitNS += waited
	}
	ctx.now = t
	r.acquireStart = t
}

// Release ends an occupation started with Acquire: the interval from the
// acquire instant to the thread's current time is booked busy.
func (r *Resource) Release(ctx *Ctx) {
	if ctx.now > r.acquireStart {
		r.bookLocked(r.acquireStart, ctx.now-r.acquireStart)
	}
	r.mu.Unlock()
}

// Bandwidth models a shared channel with a fixed byte rate (e.g. the
// aggregate write bandwidth of a persistent-memory socket). Transfers are
// serialised in virtual time like a Resource, with the hold time computed
// from the transfer size.
type Bandwidth struct {
	res Resource
	// nsPerByte is the inverse rate. A 12 GB/s channel is 1/12 ns per byte.
	nsPerByte float64
}

// NewBandwidth returns a channel limited to bytesPerSec bytes per virtual
// second. A zero or negative rate yields an infinitely fast channel.
func NewBandwidth(bytesPerSec float64) *Bandwidth {
	b := &Bandwidth{}
	if bytesPerSec > 0 {
		b.nsPerByte = 1e9 / bytesPerSec
	}
	return b
}

// Transfer occupies the channel for n bytes and advances the thread's clock.
func (b *Bandwidth) Transfer(ctx *Ctx, n int64) {
	if n <= 0 || b.nsPerByte == 0 {
		return
	}
	hold := int64(float64(n) * b.nsPerByte)
	if hold < 1 {
		hold = 1
	}
	b.res.Use(ctx, hold)
}

// Pacer enforces a duty-cycle bandwidth budget on a background virtual
// thread (the paper's §3.5 maintenance thread). The thread reports each
// burst of booked work; the pacer then advances the thread's clock by
// work*(1-b)/b, so over any window the thread occupies at most fraction b
// of virtual time and foreground bookings weave into the injected idle
// gaps. A budget of 1 (or more) is unthrottled; that regime reproduces
// the paper's §4 measurement of background defragmentation stealing
// 25-40% of foreground mmap bandwidth.
type Pacer struct {
	budget float64
	// PausedNS accumulates the idle time injected so far.
	PausedNS int64
}

// NewPacer returns a pacer holding the thread to the given fraction of
// virtual time. Budgets <= 0 default to 0.1 (10%); budgets >= 1 disable
// throttling.
func NewPacer(budget float64) *Pacer {
	if budget <= 0 {
		budget = 0.1
	}
	return &Pacer{budget: budget}
}

// Pace records workNS of just-completed work and sleeps the thread for
// the complementary share of the duty cycle. Returns the pause injected.
// A nil pacer is unthrottled, so call sites need no guards.
func (p *Pacer) Pace(ctx *Ctx, workNS int64) int64 {
	if p == nil || workNS <= 0 || p.budget >= 1 {
		return 0
	}
	pause := int64(float64(workNS) * (1 - p.budget) / p.budget)
	if pause <= 0 {
		return 0
	}
	ctx.Advance(pause)
	p.PausedNS += pause
	ctx.Counters.DefragThrottleNS += pause
	return pause
}
