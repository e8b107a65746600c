package winefs

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

func newConcFS(t *testing.T, cpus int) *FS {
	t.Helper()
	dev := pmem.New(256 << 20)
	ctx := sim.NewCtx(1, 0)
	fs, err := Mkfs(ctx, dev, Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRenameNoDeadlock is the lock-ordering regression test for Rename's
// two-inode lock: 8 goroutines rename between the same two directories in
// both directions at once. With naive lock-in-argument-order acquisition
// the a→b and b→a renames would acquire the two parent locks in opposite
// orders and deadlock; the inode-number ordering rule must keep this
// making progress. Run under -race in CI.
func TestRenameNoDeadlock(t *testing.T) {
	fs := newConcFS(t, 8)
	setup := sim.NewCtx(2, 0)
	for _, d := range []string{"/a", "/b"} {
		if err := fs.Mkdir(setup, d); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	for w := 0; w < workers; w++ {
		f, err := fs.Create(setup, fmt.Sprintf("/a/f%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(setup); err != nil {
			t.Fatal(err)
		}
	}

	if err := sim.RunThreads(sim.NewThreads(workers, 100, 8, 0), func(w int, ctx *sim.Ctx) error {
		a, b := fmt.Sprintf("/a/f%d", w), fmt.Sprintf("/b/f%d", w)
		for i := 0; i < 200; i++ {
			// Half the workers bounce a→b→a, the other half b→a→b, so
			// both directions are always in flight.
			src, dst := a, b
			if (w+i)%2 == 1 {
				src, dst = b, a
			}
			if err := fs.Rename(ctx, src, dst); err != nil && err != vfs.ErrNotExist && err != vfs.ErrExist {
				return fmt.Errorf("worker %d: rename %s -> %s: %v", w, src, dst, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	after := sim.NewCtx(3, 0)
	if err := fs.Audit(after); err != nil {
		t.Fatalf("audit after rename storm: %v", err)
	}
	ents, err := fs.ReadDir(after, "/a")
	if err != nil {
		t.Fatal(err)
	}
	bents, err := fs.ReadDir(after, "/b")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ents) + len(bents); got != workers {
		t.Fatalf("files lost or duplicated by rename storm: %d in /a + %d in /b, want %d total",
			len(ents), len(bents), workers)
	}
}

// TestLockTableChurnNoLeak asserts the per-inode lock table does not grow
// across create/delete churn: destroyInode must Drop the freed inode's
// entry, so the table tracks live inodes, not historical ones.
func TestLockTableChurnNoLeak(t *testing.T) {
	fs := newConcFS(t, 4)
	ctx := sim.NewCtx(2, 0)

	churn := func(name string) {
		f, err := fs.Create(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(ctx, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(ctx, name); err != nil {
			t.Fatal(err)
		}
	}

	churn("/warmup") // populate the root-dir (and any one-off) entries
	base := fs.locks.Len()
	for i := 0; i < 500; i++ {
		churn(fmt.Sprintf("/churn%d", i))
	}
	if got := fs.locks.Len(); got != base {
		t.Fatalf("lock table leaked: %d entries after churn, %d before", got, base)
	}

	// Concurrent churn across CPUs must drain back to the same size too.
	if err := sim.RunThreads(sim.NewThreads(4, 100, 4, 0), func(w int, wctx *sim.Ctx) error {
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("/w%d_%d", w, i)
			f, err := fs.Create(wctx, name)
			if err != nil {
				return err
			}
			if err := f.Close(wctx); err != nil {
				return err
			}
			if err := fs.Unlink(wctx, name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := fs.locks.Len(); got != base {
		t.Fatalf("lock table leaked under concurrent churn: %d entries, want %d", got, base)
	}
}

// TestSnapshotCoherentUnderChurn hammers the sharded inode map from
// mutating goroutines while readers take the coherent all-shard snapshots
// that Audit, StatFS and saveFreeState rely on. The assertions are
// intentionally weak (counts in range, no panic); the real check is the
// race detector over snapshotInodes' all-shards locking.
func TestSnapshotCoherentUnderChurn(t *testing.T) {
	fs := newConcFS(t, 4)
	const writers = 4
	stop := make(chan struct{})
	ctxs := append(sim.NewThreads(writers, 100, 4, 0), sim.NewCtx(200, 0))
	if err := sim.RunThreads(ctxs, func(w int, ctx *sim.Ctx) error {
		if w == writers { // the reader
			defer close(stop)
			for i := 0; i < 300; i++ {
				if n := len(fs.snapshotInodes()); n < 1 {
					return fmt.Errorf("snapshot lost the root inode: %d inodes", n)
				}
				st := fs.StatFS(ctx)
				if st.FreeBlocks < 0 || st.FreeBlocks > st.TotalBlocks {
					return fmt.Errorf("torn StatFS: free=%d total=%d", st.FreeBlocks, st.TotalBlocks)
				}
			}
			return nil
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return nil
			default:
			}
			name := fmt.Sprintf("/s%d_%d", w, i%8)
			if f, err := fs.Create(ctx, name); err == nil {
				_, _ = f.Append(ctx, make([]byte, 4096))
				_ = f.Close(ctx)
			}
			if i%2 == 1 {
				_ = fs.Unlink(ctx, name)
			}
		}
	}); err != nil {
		t.Error(err)
	}
	rctx := ctxs[writers]
	if err := fs.Audit(rctx); err != nil {
		t.Fatalf("audit after churn: %v", err)
	}
}

// contendedSequence runs a fixed, host-sequential workload in which the
// second thread's lock acquisitions must skip the first thread's booked
// occupations — deterministic virtual-time contention with no host-level
// racing, so two runs are exactly comparable. Returns the waiting thread's
// context.
func contendedSequence(t *testing.T, fs *FS, tracer *trace.Tracer) *sim.Ctx {
	t.Helper()
	ctxA := sim.NewCtx(10, 0)
	ctxB := sim.NewCtx(11, 1)
	if tracer != nil {
		ctxA.Trace = tracer.NewContext(ctxA.Thread)
		ctxB.Trace = tracer.NewContext(ctxB.Thread)
	}
	f, err := fs.Create(ctxA, "/contended")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fallocate(ctxA, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	// A's writes book exclusive and range occupations well past B's clock.
	buf := make([]byte, 1<<18)
	if _, err := f.WriteAt(ctxA, buf, 0); err != nil {
		t.Fatal(err)
	}
	// B starts at virtual 0 and must wait out A's bookings: an overlapping
	// data write (range lock) and then a truncate (exclusive lock).
	g, err := fs.Open(ctxB, "/contended")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(ctxB, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(ctxB, 1<<19); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctxB); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctxA); err != nil {
		t.Fatal(err)
	}
	return ctxB
}

// TestTraceLockWaitAttributionEquality runs the same deterministic
// contended sequence untraced and traced and requires identical lock-wait
// attribution and virtual clocks: tracing spans observe time, they must
// never advance it or double-charge waits.
func TestTraceLockWaitAttributionEquality(t *testing.T) {
	plain := contendedSequence(t, newConcFS(t, 4), nil)

	tracer := trace.New(trace.NewCollect())
	traced := contendedSequence(t, newConcFS(t, 4), tracer)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	if plain.Counters.LockWaitNS == 0 {
		t.Fatal("sequence produced no lock wait; contention scenario is broken")
	}
	if got, want := traced.Counters.LockWaitNS, plain.Counters.LockWaitNS; got != want {
		t.Errorf("LockWaitNS diverged: traced %d, untraced %d", got, want)
	}
	if got, want := traced.Now(), plain.Now(); got != want {
		t.Errorf("virtual clock diverged: traced %d, untraced %d", got, want)
	}
	if got, want := *traced.Counters, *plain.Counters; got != want {
		t.Errorf("counters diverged: traced %+v, untraced %+v", got, want)
	}
}
