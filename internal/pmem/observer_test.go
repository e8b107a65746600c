package pmem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// logObserver logs every event it sees, one string each.
type logObserver struct{ log []string }

func (o *logObserver) add(format string, args ...any) {
	o.log = append(o.log, fmt.Sprintf(format, args...))
}

func (o *logObserver) ObserveWrite(off int64, data []byte) { o.add("write %d %q", off, data) }
func (o *logObserver) ObserveZero(off, n int64)            { o.add("zero %d %d", off, n) }
func (o *logObserver) ObserveDiscard(off, n int64)         { o.add("discard %d %d", off, n) }
func (o *logObserver) ObserveFence()                       { o.add("fence") }

// TestObserverContract pins which device calls reach the observer: each
// store, zero, whole-chunk discard and fence exactly once with its
// arguments, and nothing that leaves the contents alone.
func TestObserverContract(t *testing.T) {
	d := New(16 << 20)
	ctx := sim.NewCtx(1, 0)
	d.WriteAt([]byte("base"), 0)
	img := d.Snapshot()
	obs := &logObserver{}
	d.SetObserver(obs)

	d.WriteAt([]byte("ab"), 10)
	d.Write(ctx, []byte("cd"), 20)
	d.WriteNT(ctx, []byte("ef"), 25) // flushes its partial line: no event of its own
	d.ZeroRange(30, 5)
	d.Zero(ctx, 40, 6)
	d.DiscardRange(ChunkSize, ChunkSize)
	d.Fence(ctx)
	// None of these reach the observer: a discard covering no whole
	// chunk drops nothing, Restore is not a store, and reads and flushes
	// change no contents.
	d.DiscardRange(100, 1000)
	d.Restore(img)
	d.ReadAt(make([]byte, 8), 0)
	d.Read(ctx, make([]byte, 8), 0)
	d.Flush(ctx, 0, 64)

	want := []string{
		`write 10 "ab"`,
		`write 20 "cd"`,
		`write 25 "ef"`,
		"zero 30 5",
		"zero 40 6",
		fmt.Sprintf("discard %d %d", ChunkSize, ChunkSize),
		"fence",
	}
	if !reflect.DeepEqual(obs.log, want) {
		t.Fatalf("observer saw %q, want %q", obs.log, want)
	}
	d.SetObserver(nil)
	d.WriteAt([]byte("x"), 0)
	d.Fence(ctx)
	if len(obs.log) != len(want) {
		t.Fatalf("removed observer saw %q", obs.log[len(want):])
	}
}

// TestRecordRefusesAttachedObserver: Record never silently detaches an
// observer it did not install, and leaves none of its own behind.
func TestRecordRefusesAttachedObserver(t *testing.T) {
	d := New(16 << 20)
	obs := &logObserver{}
	d.SetObserver(obs)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Record on an observed device did not panic")
			}
		}()
		d.Record(func() error { return nil })
	}()
	if d.observer() != obs {
		t.Fatal("Record replaced the attached observer")
	}

	d.SetObserver(nil)
	if _, err := d.Record(func() error { d.WriteAt([]byte{1}, 0); return nil }); err != nil {
		t.Fatal(err)
	}
	if d.observer() != nil {
		t.Fatal("observer still installed after Record returned")
	}
	// A panicking operation must not leave the recorder installed either.
	func() {
		defer func() { recover() }()
		d.Record(func() error { panic("op failed") })
	}()
	if d.observer() != nil {
		t.Fatal("observer still installed after Record's operation panicked")
	}
}

// TestRecordConcurrentStores: two goroutines store and fence inside one
// Record. Every store is recorded exactly once, and epochs never decrease
// along the trace.
func TestRecordConcurrentStores(t *testing.T) {
	const perG = 200
	d := New(16 << 20)
	rec, err := d.Record(func() error {
		return sim.RunThreads(sim.NewThreads(2, 1, 2, 0), func(g int, ctx *sim.Ctx) error {
			for i := 0; i < perG; i++ {
				off := int64(g*perG+i) * CacheLine
				if i%3 == 0 {
					d.Zero(ctx, off, CacheLine)
				} else {
					d.Write(ctx, []byte{byte(g + 1), byte(i)}, off)
				}
				if i%5 == 4 {
					d.Fence(ctx)
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Stores) != 2*perG {
		t.Fatalf("recorded %d stores, want %d", len(rec.Stores), 2*perG)
	}
	seen := map[int64]bool{}
	for i, s := range rec.Stores {
		if seen[s.Off] {
			t.Fatalf("store at %d recorded twice", s.Off)
		}
		seen[s.Off] = true
		if i > 0 && s.Epoch < rec.Stores[i-1].Epoch {
			t.Fatalf("epoch falls from %d to %d at store %d", rec.Stores[i-1].Epoch, s.Epoch, i)
		}
	}
	if want := 2 * (perG / 5); rec.Last() > want {
		t.Fatalf("last epoch %d exceeds the %d fences issued", rec.Last(), want)
	}
	if !sameDevice(rec.Cut(rec.Last()+1), d.Snapshot()) {
		t.Fatal("Cut(Last()+1) is not the device after the operation")
	}
}
