package sim

import (
	"slices"
	"testing"
)

// The calendars answer "is t inside a booking" by binary search, skip the
// search when t is at or past the last booking, insert in place, keep
// their newest maxSpans intervals in a sliding window over one array, and
// grow in storage recycled from dropped resources. The models below do
// the same jobs the slow, obvious way — linear scans over a plain slice,
// copied on every change — and the tests replay long random lock/unlock
// sequences from one to four clocks through both, dropping the resource
// now and then for a new one on the same pool: every returned instant and,
// after every operation, every calendar must be identical.

func modelSkip(spans []span, t int64) int64 {
	for _, s := range spans {
		if s.start <= t && t < s.end {
			return s.end
		}
	}
	return t
}

// modelTrim keeps the newest maxSpans intervals.
func modelTrim(spans []span) []span {
	if len(spans) > maxSpans {
		spans = slices.Delete(spans, 0, len(spans)-maxSpans)
	}
	return spans
}

// modelInsertUnion adds s, merged with everything it overlaps or touches.
func modelInsertUnion(spans []span, s span) []span {
	i := 0
	for i < len(spans) && spans[i].end < s.start {
		i++
	}
	j := i
	for ; j < len(spans) && spans[j].start <= s.end; j++ {
		s.start, s.end = min(s.start, spans[j].start), max(s.end, spans[j].end)
	}
	return modelTrim(slices.Replace(spans, i, j, s))
}

// modelBook is Resource.bookLocked: the earliest t >= from with [t, t+hold)
// free; the new interval joins a neighbour only where they touch exactly.
func modelBook(spans []span, from, hold int64) ([]span, int64) {
	t := from
	i := 0
	for ; i < len(spans); i++ {
		if spans[i].end <= t {
			continue
		}
		if t+hold <= spans[i].start {
			break
		}
		t = spans[i].end
	}
	s, lo, hi := span{t, t + hold}, i, i
	if i > 0 && spans[i-1].end == s.start {
		s.start, lo = spans[i-1].start, i-1
	}
	if i < len(spans) && spans[i].start == s.end {
		s.end, hi = spans[i].end, i+1
	}
	return modelTrim(slices.Replace(spans, lo, hi, s)), t
}

// compareNow says whether to compare whole calendars after operation op:
// after every one while they are short, then every 16th — every admission
// instant is compared regardless, and a calendar that had gone wrong would
// go on giving wrong ones.
func compareNow(op int) bool { return op < 2*maxSpans || op%16 == 0 }

// modelClocks returns n contexts whose clocks start far apart, so that some
// run ahead of the calendars' frontier and some lag behind it — into the
// gaps, and behind the window's dropped past.
func modelClocks(rng *Rand, n int) []*Ctx {
	ctxs := make([]*Ctx, n)
	for i := range ctxs {
		ctxs[i] = NewCtx(i+1, i)
		ctxs[i].Advance(rng.Int63n(200_000))
	}
	return ctxs
}

// lifetime says how many operations the resource replayed from op on
// lives before it is dropped and a new one takes its place: the first
// lives through half the replay, so its calendars reach their bound; the
// rest come and go, their calendars growing in the storage their
// predecessors handed back to the pool.
func lifetime(rng *Rand, op, ops int) int {
	if op == 0 {
		return ops / 2
	}
	return 1 + rng.Intn(2000)
}

func TestRWResourceAgainstModel(t *testing.T) {
	const ops = 100_000
	for clocks := 1; clocks <= 4; clocks++ {
		rng := NewRand(uint64(clocks))
		ctxs := modelClocks(rng, clocks)
		var pool CalendarPool
		r := &RWResource{}
		r.SetPool(&pool)
		var wr, rd []span
		type reader struct {
			ctx   *Ctx
			start int64
		}
		var readers []reader // shared occupations in flight
		full := false
		release := func() {
			for _, h := range readers {
				h.ctx.Advance(1 + rng.Int63n(300))
				r.RUnlock(h.ctx, h.start)
				if h.ctx.Now() > h.start {
					rd = modelInsertUnion(rd, span{h.start, h.ctx.Now()})
				}
			}
			readers = readers[:0]
		}
		n := ops / clocks
		drop, held, reused := lifetime(rng, 0, n), -1, 0
		for op := 0; op < n; op++ {
			if op == drop {
				// The resource is dropped with readers in flight: they
				// release the orphan, which books them into storage of its
				// own — its past is forgotten, so its model starts empty.
				r.Recycle()
				wr, rd = nil, nil
				release()
				if !slices.Equal(r.wr.live(), wr) || !slices.Equal(r.rd.live(), rd) {
					t.Fatalf("%d clocks, op %d: the dropped resource's calendars differ from the model", clocks, op)
				}
				r, wr, rd = &RWResource{}, nil, nil
				r.SetPool(&pool)
				drop, held = op+lifetime(rng, op, n), pool.p.Held()
			}
			ctx := ctxs[rng.Intn(clocks)]
			ctx.Advance(rng.Int63n(400))
			if rng.Intn(3) == 0 {
				release() // an exclusive holder excludes the readers on the host too
				want := ctx.Now()
				for {
					t2 := modelSkip(rd, modelSkip(wr, want))
					if t2 == want {
						break
					}
					want = t2
				}
				r.Lock(ctx)
				if ctx.Now() != want {
					t.Fatalf("%d clocks, op %d: Lock admitted at %d, model says %d", clocks, op, ctx.Now(), want)
				}
				ctx.Advance(rng.Int63n(300)) // 0: an empty occupation books nothing
				r.Unlock(ctx)
				if ctx.Now() > want {
					wr = modelInsertUnion(wr, span{want, ctx.Now()})
				}
			} else {
				want := ctx.Now()
				for t2 := modelSkip(wr, want); t2 != want; t2 = modelSkip(wr, want) {
					want = t2
				}
				start := r.RLock(ctx)
				if start != want || ctx.Now() != want {
					t.Fatalf("%d clocks, op %d: RLock admitted at %d, model says %d", clocks, op, start, want)
				}
				readers = append(readers, reader{ctx, start})
				if len(readers) >= 1+rng.Intn(4) {
					release()
				}
			}
			full = full || r.wr.head > 0 && r.rd.head > 0 // both windows have slid: both dropped their oldest
			if pool.p.Held() < held {
				reused, held = reused+1, -1
			}
			if !compareNow(op) && op+1 != drop {
				continue
			}
			if !slices.Equal(r.wr.live(), wr) || !slices.Equal(r.rd.live(), rd) {
				t.Fatalf("%d clocks, op %d: calendars differ from the model (%d/%d exclusive, %d/%d shared spans)",
					clocks, op, len(r.wr.live()), len(wr), len(r.rd.live()), len(rd))
			}
			if cap(r.wr.buf) > 2*maxSpans+2 || cap(r.rd.buf) > 2*maxSpans+2 {
				t.Fatalf("%d clocks, op %d: a calendar's array grew to %d/%d spans; a window over 2×%d was the promise",
					clocks, op, cap(r.wr.buf), cap(r.rd.buf), maxSpans)
			}
		}
		if !full {
			t.Fatalf("%d clocks: calendars ended at %d and %d spans, neither ever over the bound of %d", clocks, len(wr), len(rd), maxSpans)
		}
		if reused < 10 {
			t.Fatalf("%d clocks: only %d resources grew in storage a dropped one handed back", clocks, reused)
		}
	}
}

func TestResourceAgainstModel(t *testing.T) {
	const ops = 100_000
	for clocks := 1; clocks <= 4; clocks++ {
		rng := NewRand(uint64(10 + clocks))
		ctxs := modelClocks(rng, clocks)
		var pool CalendarPool
		r := &Resource{pool: &pool.p}
		var cal []span
		full := false
		n := ops / clocks
		drop, held, reused := lifetime(rng, 0, n), -1, 0
		for op := 0; op < n; op++ {
			if op == drop {
				r.cal.recycle(r.pool)
				r, cal = &Resource{pool: &pool.p}, nil
				drop, held = op+lifetime(rng, op, n), pool.p.Held()
			}
			ctx := ctxs[rng.Intn(clocks)]
			ctx.Advance(rng.Int63n(300))
			var want int64
			if rng.Intn(2) == 0 {
				hold := 1 + rng.Int63n(200)
				cal, want = modelBook(cal, ctx.Now(), hold)
				if got := r.Use(ctx, hold); got != want || ctx.Now() != want+hold {
					t.Fatalf("%d clocks, op %d: Use booked at %d, model says %d", clocks, op, got, want)
				}
			} else {
				// Acquire starts at the first instant no booking contains.
				want = ctx.Now()
				for t2 := modelSkip(cal, want); t2 != want; t2 = modelSkip(cal, want) {
					want = t2
				}
				r.Acquire(ctx)
				if ctx.Now() != want {
					t.Fatalf("%d clocks, op %d: Acquire admitted at %d, model says %d", clocks, op, ctx.Now(), want)
				}
				ctx.Advance(rng.Int63n(200))
				// Release books where it fits from the acquire instant on.
				if held := ctx.Now() - want; held > 0 {
					cal, _ = modelBook(cal, want, held)
				}
				r.Release(ctx)
			}
			full = full || r.cal.head > 0
			if pool.p.Held() < held {
				reused, held = reused+1, -1
			}
			if !compareNow(op) && op+1 != drop {
				continue
			}
			if !slices.Equal(r.cal.live(), cal) {
				t.Fatalf("%d clocks, op %d: calendar differs from the model (%d spans, model %d)", clocks, op, len(r.cal.live()), len(cal))
			}
		}
		if !full {
			t.Fatalf("%d clocks: calendar ended at %d spans, never over the bound of %d", clocks, len(cal), maxSpans)
		}
		if reused < 10 {
			t.Fatalf("%d clocks: only %d resources grew in storage a dropped one handed back", clocks, reused)
		}
	}
}
