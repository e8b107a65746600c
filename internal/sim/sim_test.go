package sim

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestCtxClock(t *testing.T) {
	ctx := NewCtx(1, 0)
	if ctx.Now() != 0 {
		t.Fatalf("new ctx clock = %d, want 0", ctx.Now())
	}
	ctx.Advance(100)
	ctx.Advance(-50) // ignored
	if got := ctx.Now(); got != 100 {
		t.Fatalf("clock = %d, want 100", got)
	}
	ctx.AdvanceTo(50) // in the past, ignored
	if got := ctx.Now(); got != 100 {
		t.Fatalf("clock after AdvanceTo(past) = %d, want 100", got)
	}
	ctx.AdvanceTo(500)
	if got := ctx.Now(); got != 500 {
		t.Fatalf("clock after AdvanceTo = %d, want 500", got)
	}
	ctx.Reset()
	if ctx.Now() != 0 || ctx.Counters.PageFaults != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestResourceSerialises(t *testing.T) {
	var r Resource
	a := NewCtx(1, 0)
	b := NewCtx(2, 1)
	start := r.Use(a, 100)
	if start != 0 || a.Now() != 100 {
		t.Fatalf("first use: start=%d now=%d", start, a.Now())
	}
	// b arrives at t=0 but the resource is busy until 100.
	start = r.Use(b, 50)
	if start != 100 {
		t.Fatalf("second use start = %d, want 100", start)
	}
	if b.Now() != 150 {
		t.Fatalf("b clock = %d, want 150", b.Now())
	}
	if b.Counters.LockWaitNS != 100 {
		t.Fatalf("b lock wait = %d, want 100", b.Counters.LockWaitNS)
	}
}

func TestResourceAcquireRelease(t *testing.T) {
	var r Resource
	a := NewCtx(1, 0)
	r.Acquire(a)
	a.Advance(70)
	r.Release(a)
	b := NewCtx(2, 0)
	r.Acquire(b)
	if b.Now() != 70 {
		t.Fatalf("b jumped to %d, want 70", b.Now())
	}
	r.Release(b)
}

func TestResourceConcurrentUse(t *testing.T) {
	// Many goroutines each occupy the resource; total busy time must equal
	// the sum of holds regardless of interleaving.
	var r Resource
	const n = 32
	const hold = 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := NewCtx(id, id)
			r.Use(ctx, hold)
		}(i)
	}
	wg.Wait()
	late := NewCtx(n, 0)
	r.Acquire(late) // at 0, inside the occupations: admitted at their end
	if late.Now() != n*hold {
		t.Fatalf("busy until %d, want %d", late.Now(), n*hold)
	}
	r.Release(late)
}

func TestBandwidth(t *testing.T) {
	bw := NewBandwidth(1e9) // 1 GB/s = 1 ns/byte
	ctx := NewCtx(1, 0)
	bw.Transfer(ctx, 1000)
	if ctx.Now() != 1000 {
		t.Fatalf("transfer time = %d, want 1000", ctx.Now())
	}
	// Infinite bandwidth.
	inf := NewBandwidth(0)
	inf.Transfer(ctx, 1<<30)
	if ctx.Now() != 1000 {
		t.Fatal("infinite bandwidth advanced the clock")
	}
}

func TestBandwidthContention(t *testing.T) {
	bw := NewBandwidth(1e9)
	a := NewCtx(1, 0)
	b := NewCtx(2, 1)
	bw.Transfer(a, 1000)
	bw.Transfer(b, 1000)
	if b.Now() != 2000 {
		t.Fatalf("second transfer finished at %d, want 2000 (serialised)", b.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	// Property: Intn over a fixed range is roughly uniform.
	check := func(seed uint64) bool {
		r := NewRand(seed)
		const buckets = 8
		const draws = 8000
		var counts [buckets]int
		for i := 0; i < draws; i++ {
			counts[r.Intn(buckets)]++
		}
		for _, c := range counts {
			if c < draws/buckets/2 || c > draws/buckets*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[int64]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and the top-10 should hold a large share.
	if counts[0] < counts[10] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[10]=%d", counts[0], counts[10])
	}
	top := 0
	for k := int64(0); k < 10; k++ {
		top += counts[k]
	}
	if float64(top)/draws < 0.3 {
		t.Fatalf("top-10 share %f too small for theta=0.99", float64(top)/draws)
	}
}

// TestSyscallCharges: the preamble helper must count the call, charge
// SyscallNS and advance the clock by exactly the model cost.
func TestSyscallCharges(t *testing.T) {
	ctx := NewCtx(1, 0)
	ctx.Syscall(250)
	ctx.Syscall(250)
	if ctx.Counters.Syscalls != 2 || ctx.Counters.SyscallNS != 500 || ctx.Now() != 500 {
		t.Fatalf("syscalls=%d syscallNS=%d now=%d",
			ctx.Counters.Syscalls, ctx.Counters.SyscallNS, ctx.Now())
	}
}

// TestSpansObserveButNeverAdvance: StartSpan/EndSpan must attribute counter
// deltas to the span without moving the virtual clock, and a nil Trace must
// cost nothing and return nil.
func TestSpansObserveButNeverAdvance(t *testing.T) {
	ctx := NewCtx(1, 0)
	if sp := ctx.StartSpan("off"); sp != nil {
		t.Fatal("span opened with tracing disabled")
	}
	ctx.EndSpan(nil) // must not panic

	sink := trace.NewCollect()
	ctx.Trace = trace.New(sink).NewContext(ctx.Thread)
	ctx.Syscall(100)
	before := ctx.Now()
	sp := ctx.StartSpan("op")
	ctx.Syscall(40)
	ctx.Counters.JournalNS += 7
	ctx.EndSpan(sp)
	if got := ctx.Now() - before; got != 40 {
		t.Fatalf("span advanced the clock: delta=%d, want 40 (the syscall only)", got)
	}
	spans := sink.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	got := spans[0]
	if got.DurNS != 40 || got.Cost.SyscallNS != 40 || got.Cost.JournalNS != 7 {
		t.Fatalf("span %+v cost %+v", got, got.Cost)
	}
	// The pre-span syscall must not leak into the breakdown.
	if got.Cost.SyscallNS >= 100 {
		t.Fatal("breakdown includes cost accrued before StartSpan")
	}
}

// TestUseQuantaEquivalence pins the batched booking API to its contract:
// UseQuanta must be bit-identical — same final clock, same LockWaitNS,
// same calendar state observable through later contention — to the
// per-quantum Use loop it replaced, including the ragged final quantum
// and holds under one quantum.
func TestUseQuantaEquivalence(t *testing.T) {
	for _, tc := range []struct{ hold, quantum int64 }{
		{7000, 700},  // even split
		{7001, 700},  // ragged tail quantum
		{699, 700},   // single short occupation
		{700, 700},   // exactly one quantum
		{1, 1},       // degenerate
		{65536, 700}, // long transfer
	} {
		ra, rb := &Resource{}, &Resource{}
		ca, cb := NewCtx(1, 0), NewCtx(1, 0)
		rb.UseQuanta(cb, tc.hold, tc.quantum)
		for rem := tc.hold; rem > 0; rem -= tc.quantum {
			q := tc.quantum
			if rem < q {
				q = rem
			}
			ra.Use(ca, q)
		}
		if ca.now != cb.now {
			t.Errorf("hold=%d quantum=%d: clock %d (loop) vs %d (batched)",
				tc.hold, tc.quantum, ca.now, cb.now)
		}
		if ca.Counters.LockWaitNS != cb.Counters.LockWaitNS {
			t.Errorf("hold=%d quantum=%d: LockWaitNS %d vs %d",
				tc.hold, tc.quantum, ca.Counters.LockWaitNS, cb.Counters.LockWaitNS)
		}
		// A second thread arriving mid-occupation must queue identically:
		// the calendars the two APIs leave behind are the same.
		oa, ob := NewCtx(2, 1), NewCtx(2, 1)
		oa.now, ob.now = tc.hold/2, tc.hold/2
		ra.Use(oa, 10)
		rb.Use(ob, 10)
		if oa.now != ob.now || oa.Counters.LockWaitNS != ob.Counters.LockWaitNS {
			t.Errorf("hold=%d quantum=%d: follower clock %d/%d wait %d/%d diverge",
				tc.hold, tc.quantum, oa.now, ob.now,
				oa.Counters.LockWaitNS, ob.Counters.LockWaitNS)
		}
	}
}
