package tier

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestSlowDeviceRoundTrip(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)

	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	d.Write(ctx, data, 2*PageSize)

	got := make([]byte, len(data))
	d.Read(ctx, got, 2*PageSize)
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong data")
	}

	d.Zero(ctx, 2*PageSize, PageSize)
	d.Read(ctx, got, 2*PageSize)
	if !bytes.Equal(got[:PageSize], make([]byte, PageSize)) || !bytes.Equal(got[PageSize:], data[PageSize:]) {
		t.Fatal("Zero did not clear exactly its page")
	}
}

// slowCost is the uncontended price of reading n page-aligned bytes.
func slowCost(n int64) int64 { return ReadLatNS + int64(float64(n)*ReadNSPerByte) }

func TestSlowDeviceCharging(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)

	// A one-byte read still costs a full page: latency + one page transfer.
	buf := make([]byte, 1)
	before := ctx.Now()
	d.Read(ctx, buf, 0)
	elapsed := ctx.Now() - before
	want := slowCost(PageSize)
	if elapsed != want {
		t.Fatalf("1-byte read cost %dns, want %dns (page-granular)", elapsed, want)
	}
	if ctx.Counters.SlowReads != 1 || ctx.Counters.SlowReadBytes != PageSize {
		t.Fatalf("counters: reads=%d readBytes=%d, want 1/%d",
			ctx.Counters.SlowReads, ctx.Counters.SlowReadBytes, PageSize)
	}

	// A straddling 2-byte read at a page boundary costs two pages.
	before = ctx.Now()
	d.Read(ctx, make([]byte, 2), PageSize-1)
	elapsed = ctx.Now() - before
	want = slowCost(2 * PageSize)
	if elapsed != want {
		t.Fatalf("straddling read cost %dns, want %dns", elapsed, want)
	}
}

func TestSlowDeviceQueueDepth(t *testing.T) {
	cfg := DefaultSlowConfig(1 << 20)
	cfg.QueueDepth = 2
	d := NewSlow(cfg)
	defer d.Release()

	// Two threads hitting pages that map to the same port serialise; a
	// third on the other port proceeds in parallel.
	perOp := slowCost(PageSize)
	buf := make([]byte, 1)

	a := sim.NewCtx(1, 0)
	b := sim.NewCtx(2, 1)
	c := sim.NewCtx(3, 2)
	d.Read(a, buf, 0)          // port 0
	d.Read(b, buf, 2*PageSize) // page 2 -> port 0: queues behind a
	d.Read(c, buf, PageSize)   // page 1 -> port 1: uncontended

	if a.Now() != perOp {
		t.Fatalf("first op finished at %d, want %d", a.Now(), perOp)
	}
	if b.Now() != 2*perOp {
		t.Fatalf("same-port op finished at %d, want %d (queued)", b.Now(), 2*perOp)
	}
	if c.Now() != perOp {
		t.Fatalf("other-port op finished at %d, want %d (parallel)", c.Now(), perOp)
	}
	if b.Counters.LockWaitNS == 0 {
		t.Fatal("queued command did not record queue wait")
	}
}

// backedPages counts the device's backed page slots.
func backedPages(d *SlowDevice) int {
	n := 0
	for i := range d.pages {
		if d.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

// filled returns n bytes of seed, never zero.
func filled(n int, seed byte) []byte {
	return bytes.Repeat([]byte{seed | 1}, n)
}

func TestSlowDeviceZeroWriteBacksNothing(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)

	// Zeros over unbacked pages, whole and partial, back nothing, and
	// are charged like any write.
	before := ctx.Now()
	d.Write(ctx, make([]byte, 3*PageSize), 0)
	d.Write(ctx, make([]byte, 100), 5*PageSize+7)
	d.Zero(ctx, 8*PageSize, 2*PageSize)
	if n := backedPages(d); n != 0 {
		t.Fatalf("zero stores backed %d pages, want 0", n)
	}
	if ctx.Now() == before || ctx.Counters.SlowWrites != 3 {
		t.Fatalf("zero stores charged %dns over %d writes, want 3 charged writes", ctx.Now()-before, ctx.Counters.SlowWrites)
	}
	got := filled(PageSize, 7)
	d.Read(ctx, got, 5*PageSize)
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("an unbacked page does not read as zeros")
	}

	// A store straddling two pages backs only the page its nonzero
	// bytes land on.
	buf := make([]byte, PageSize)
	buf[len(buf)-1] = 9
	d.Write(ctx, buf, 10*PageSize+PageSize/2)
	if n := backedPages(d); n != 1 || d.pages[11].Load() == nil {
		t.Fatalf("a straddling store with one nonzero byte backed %d pages, want page 11 alone", n)
	}
}

func TestSlowDeviceZeroPageGivesItUp(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	d.Write(ctx, filled(4*PageSize, 3), 0)
	if n := backedPages(d); n != 4 {
		t.Fatalf("a 4-page write backed %d pages, want 4", n)
	}

	// Zeros over part of a page clear it in place and keep it backed.
	d.Write(ctx, make([]byte, PageSize-1), 0)
	d.Zero(ctx, PageSize+1, PageSize-1)
	if n := backedPages(d); n != 4 {
		t.Fatalf("partial zero stores left %d pages backed, want 4", n)
	}
	got := make([]byte, 2*PageSize)
	d.Read(ctx, got, 0)
	want := make([]byte, 2*PageSize)
	want[PageSize-1], want[PageSize] = 3|1, 3|1
	if !bytes.Equal(got, want) {
		t.Fatal("partial zero stores cleared the wrong bytes")
	}

	// A whole page of zeros, written or cleared, gives its page up.
	d.Write(ctx, make([]byte, PageSize), 2*PageSize)
	d.Zero(ctx, 3*PageSize, PageSize)
	if n := backedPages(d); n != 2 || d.pages[2].Load() != nil || d.pages[3].Load() != nil {
		t.Fatalf("whole-page zero stores left %d pages backed, want pages 0 and 1", n)
	}
	d.Read(ctx, got, 2*PageSize)
	if !bytes.Equal(got, make([]byte, 2*PageSize)) {
		t.Fatal("a given-up page does not read as zeros")
	}
}

func TestSlowDeviceDiscardKeepsBytes(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	data := filled(8*PageSize, 5)
	d.Write(ctx, data, 0)
	before := ctx.Now()
	d.DiscardRange(0, 8*PageSize)
	if ctx.Now() != before {
		t.Fatal("DiscardRange was charged")
	}
	got := make([]byte, len(data))
	d.Read(ctx, got, 0)
	if !bytes.Equal(got, data) || backedPages(d) != 8 {
		t.Fatal("DiscardRange lost bytes a crash state may still map")
	}
}

func TestSlowDeviceSnapshotRestore(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	old := filled(3*PageSize, 11)
	d.Write(ctx, old, PageSize)
	img := d.Snapshot()
	defer img.Release()

	// Later stores, a zero page and a fresh page among them, leave the
	// snapshot as it was.
	d.Write(ctx, filled(PageSize, 13), PageSize)
	d.Zero(ctx, 2*PageSize, PageSize)
	d.Write(ctx, filled(PageSize, 15), 9*PageSize)
	got := make([]byte, 10*PageSize)
	img.Read(ctx, got, 0)
	want := make([]byte, 10*PageSize)
	copy(want[PageSize:], old)
	if !bytes.Equal(got, want) || backedPages(img) != 3 {
		t.Fatal("the snapshot moved with the device")
	}

	d.Restore(img)
	d.Read(ctx, got, 0)
	if !bytes.Equal(got, want) || backedPages(d) != 3 {
		t.Fatal("Restore did not bring the snapshot back")
	}
}

// TestSlowDeviceConcurrentNeighbours: writers whose ranges share pages,
// each range the second half of one page and the first half of the next,
// back those pages at once and keep their own bytes (run it under -race).
func TestSlowDeviceConcurrentNeighbours(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := sim.NewCtx(w+1, w)
			off := int64(w)*PageSize + PageSize/2
			mine := filled(PageSize, byte(w))
			got := make([]byte, PageSize)
			for r := 0; r < rounds; r++ {
				d.Write(ctx, mine, off)
				d.Read(ctx, got, off)
				if !bytes.Equal(got, mine) {
					t.Errorf("writer %d round %d: its range lost its bytes", w, r)
					return
				}
				d.Zero(ctx, off, PageSize)
			}
		}(w)
	}
	wg.Wait()
	got := make([]byte, (writers+1)*PageSize)
	d.Read(sim.NewCtx(9, 0), got, 0)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("bytes left behind after every writer zeroed its own range")
	}
}

// TestSlowDeviceWritesDoNotAllocate pins the store's steady state:
// overwriting a backed page, a freshly discarded one included, allocates
// nothing.
func TestSlowDeviceWritesDoNotAllocate(t *testing.T) {
	d := NewSlow(DefaultSlowConfig(1 << 20))
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	data := filled(4*PageSize, 21)
	d.Write(ctx, data, 0)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"overwrite", func() { d.Write(ctx, data, 0) }},
		{"partial overwrite", func() { d.Write(ctx, data[:100], PageSize+10) }},
		{"write after discard", func() { d.DiscardRange(0, 4*PageSize); d.Write(ctx, data, 0) }},
	} {
		if n := testing.AllocsPerRun(200, tc.run); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
		}
	}
}
