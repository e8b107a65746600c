package vfs

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestLocksDoNotAllocate pins the three lock modes at zero allocations per
// acquire/release on an inode the caller already holds the lock object of,
// and through the table by number as well: the handle is a value, the lock
// object exists, the calendars have reached their steady size.
func TestLocksDoNotAllocate(t *testing.T) {
	lt := NewLockTable()
	ctx := sim.NewCtx(1, 0)
	l := lt.Inode(7)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Lock", func() { h := l.Lock(ctx); ctx.Advance(10); h.Unlock(ctx); ctx.Advance(10) }},
		{"RLock", func() { h := l.RLock(ctx); ctx.Advance(10); h.Unlock(ctx); ctx.Advance(10) }},
		{"LockRange", func() { h := l.LockRange(ctx, 4096, 4096); ctx.Advance(10); h.Unlock(ctx); ctx.Advance(10) }},
		{"Lock by number", func() { h := lt.Lock(ctx, 7); ctx.Advance(10); h.Unlock(ctx); ctx.Advance(10) }},
	} {
		// Every release books a new interval: run each calendar to its bound
		// and round its window once, so its array has stopped growing.
		for i := 0; i < 5000; i++ {
			tc.run()
		}
		if n := testing.AllocsPerRun(500, tc.run); n != 0 {
			t.Errorf("%s + Unlock: %v allocs per pair, want 0", tc.name, n)
		}
	}
}

// rlocker returns an inode lock whose exclusive calendar holds `spans`
// bookings, a clock past the last of them, and a step that takes and
// releases the lock shared — a stat or a read on a busy directory's inode.
func rlocker(spans int) (step func()) {
	l := NewLockTable().Inode(1)
	ctx := sim.NewCtx(1, 0)
	for i := 0; i < spans; i++ {
		h := l.Lock(ctx)
		ctx.Advance(10)
		h.Unlock(ctx)
		ctx.Advance(10)
	}
	return func() { l.RLock(ctx).Unlock(ctx) }
}

func BenchmarkLockTableRLock(b *testing.B) {
	for _, spans := range []int{1, 1024} {
		b.Run(fmt.Sprintf("spans=%d", spans), func(b *testing.B) {
			step := rlocker(spans)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestRLockFlatInCalendarLength: a caller whose clock is past the last
// booking pays the same for a full calendar as for an empty one — no
// search of 1,024 intervals it is already beyond. Host time, so the best
// of several rounds on each side, and a generous 1.5×.
func TestRLockFlatInCalendarLength(t *testing.T) {
	const calls, rounds = 200_000, 7
	best := func(spans int) time.Duration {
		step := rlocker(spans)
		per := make([]time.Duration, rounds)
		for r := range per {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				step()
			}
			per[r] = time.Since(t0)
		}
		return slices.Min(per)
	}
	short, long := best(1), best(1024)
	t.Logf("RLock+Unlock: %.1f ns with 1 booking, %.1f ns with 1024", float64(short)/calls, float64(long)/calls)
	if float64(long) > 1.5*float64(short) {
		t.Errorf("RLock+Unlock costs %.1f ns against a full calendar, %.1f ns against one booking: more than 1.5×",
			float64(long)/calls, float64(short)/calls)
	}
}

// TestLockRangeAgainstModel replays random range-lock sequences from one to
// four clocks through the table and through the obvious model — every
// booking kept in a list, the newest maxRangeOccs of it scanned in full for
// every acquisition — and requires the same admission instant every time
// and the same set of bookings after every release. The table keeps its
// bookings in a ring and skips the scan when the clock is past them all.
func TestLockRangeAgainstModel(t *testing.T) {
	const ops = 100_000
	for clocks := 1; clocks <= 4; clocks++ {
		rng := sim.NewRand(uint64(clocks))
		ctxs := make([]*sim.Ctx, clocks)
		for i := range ctxs {
			ctxs[i] = sim.NewCtx(i+1, i)
			ctxs[i].Advance(rng.Int63n(50_000)) // some run ahead, some lag into old bookings
		}
		l := NewLockTable().Inode(1)
		var model []rangeOcc
		order := func(a, b rangeOcc) int {
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.until, b.until),
				cmp.Compare(a.off, b.off), cmp.Compare(a.end, b.end))
		}
		for op := 0; op < ops/clocks; op++ {
			ctx := ctxs[rng.Intn(clocks)]
			ctx.Advance(rng.Int63n(200))
			r := byteRange{off: rng.Int63n(16) * 4096}
			r.end = r.off + (1+rng.Int63n(4))*4096
			want := ctx.Now()
			for _, o := range model {
				if o.overlaps(r) && o.until > want {
					want = o.until
				}
			}
			h := l.LockRange(ctx, r.off, r.end-r.off)
			if ctx.Now() != want {
				t.Fatalf("%d clocks, op %d: range [%d,%d) admitted at %d, model says %d", clocks, op, r.off, r.end, ctx.Now(), want)
			}
			ctx.Advance(rng.Int63n(150)) // 0: an empty occupation books nothing
			h.Unlock(ctx)
			if ctx.Now() > want {
				model = append(model, rangeOcc{r, want, ctx.Now()})
				if len(model) > maxRangeOccs {
					model = model[1:]
				}
			}
			if op%64 != 0 {
				continue // the instants above depend on every booking; the sets are compared now and then
			}
			got, sorted := slices.Clone(l.booked), slices.Clone(model)
			slices.SortFunc(got, order)
			slices.SortFunc(sorted, order)
			if !slices.Equal(got, sorted) {
				t.Fatalf("%d clocks, op %d: the table's %d bookings are not the model's newest %d", clocks, op, len(got), len(sorted))
			}
		}
		if len(model) < maxRangeOccs {
			t.Fatalf("%d clocks: only %d bookings, the ring never wrapped", clocks, len(model))
		}
	}
}
