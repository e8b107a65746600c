package tier

import (
	"bytes"
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
