package pmem

import (
	"testing"

	"repro/internal/sim"
)

// TestChargeAmountsPerOp locks the exact virtual-time charge of every
// device-level operation under DefaultModel. These numbers ARE the
// simulation's physics: any engine refactor (batching, pooling, fast
// paths) must leave them bit-identical, and any deliberate model change
// must update this table consciously. Derivations mirror the charge
// functions:
//
//	small read/write (≤4 lines):  Lat64 + (lines-1)*Lat64/4
//	bulk read:   ReadLat64  + n*CopyReadNSPerByte  (+ port transfer)
//	bulk write:  WriteLat64 + n*CopyWriteNSPerByte (+ port transfer)
//	writeNT:     write + FlushLat per partial edge line (one if both share a line)
//	flush:       FlushLat + (lines-1)*FlushLat/8
//	fence:       FenceLat
//	zero:        n*ZeroNSPerByte (+ port transfer)
//
// Port transfers book on an uncontended calendar here, so they extend the
// clock by exactly the transfer hold time.
func TestChargeAmountsPerOp(t *testing.T) {
	m := DefaultModel()
	xfer := func(n int64, bw float64) int64 { // transfer hold, uncontended
		return int64(float64(n) / bw * 1e9)
	}
	written := func(n int, off int64) int64 { // what Write charges for the same store
		d := New(16 << 20)
		defer d.Release()
		ctx := sim.NewCtx(1, 0)
		d.Write(ctx, make([]byte, n), off)
		return ctx.Now()
	}
	cases := []struct {
		name string
		op   func(d *Device, ctx *sim.Ctx)
		want int64
	}{
		{"read 1B = one line", func(d *Device, ctx *sim.Ctx) {
			d.Read(ctx, make([]byte, 1), 0)
		}, m.ReadLat64}, // 300
		{"read 64B = one line", func(d *Device, ctx *sim.Ctx) {
			d.Read(ctx, make([]byte, 64), 0)
		}, m.ReadLat64}, // 300
		{"read 256B = four lines", func(d *Device, ctx *sim.Ctx) {
			d.Read(ctx, make([]byte, 256), 0)
		}, m.ReadLat64 + 3*m.ReadLat64/4}, // 525
		{"read 4KiB bulk", func(d *Device, ctx *sim.Ctx) {
			d.Read(ctx, make([]byte, 4096), 0)
		}, m.ReadLat64 + int64(4096*m.CopyReadNSPerByte) + xfer(4096, m.ReadBandwidth)}, // 300+491+409
		{"write 64B = one line", func(d *Device, ctx *sim.Ctx) {
			d.Write(ctx, make([]byte, 64), 0)
		}, m.WriteLat64}, // 100
		{"write 256B = four lines", func(d *Device, ctx *sim.Ctx) {
			d.Write(ctx, make([]byte, 256), 0)
		}, m.WriteLat64 + 3*m.WriteLat64/4}, // 175
		{"write 4KiB bulk", func(d *Device, ctx *sim.Ctx) {
			d.Write(ctx, make([]byte, 4096), 0)
		}, m.WriteLat64 + int64(4096*m.CopyWriteNSPerByte) + xfer(4096, m.WriteBandwidth)}, // 100+1024+1024
		{"writeNT 4KiB aligned = write", func(d *Device, ctx *sim.Ctx) {
			d.WriteNT(ctx, make([]byte, 4096), 0)
		}, m.WriteLat64 + int64(4096*m.CopyWriteNSPerByte) + xfer(4096, m.WriteBandwidth)}, // no flush
		{"writeNT unaligned head = write + one flush", func(d *Device, ctx *sim.Ctx) {
			d.WriteNT(ctx, make([]byte, 4096-8), 8)
		}, written(4096-8, 8) + m.FlushLat},
		{"writeNT head and tail in two lines = write + two flushes", func(d *Device, ctx *sim.Ctx) {
			d.WriteNT(ctx, make([]byte, 4096), 8)
		}, written(4096, 8) + 2*m.FlushLat},
		{"writeNT 10B inside one line = write + one flush", func(d *Device, ctx *sim.Ctx) {
			d.WriteNT(ctx, make([]byte, 10), 70)
		}, written(10, 70) + m.FlushLat}, // 100+40
		{"flush one line", func(d *Device, ctx *sim.Ctx) {
			d.Flush(ctx, 0, 64)
		}, m.FlushLat}, // 40
		{"flush 4KiB = 64 lines", func(d *Device, ctx *sim.Ctx) {
			d.Flush(ctx, 0, 4096)
		}, m.FlushLat + 63*m.FlushLat/8}, // 355
		{"flush straddling lines", func(d *Device, ctx *sim.Ctx) {
			d.Flush(ctx, 63, 2) // 2 bytes over a line boundary = 2 lines
		}, m.FlushLat + m.FlushLat/8}, // 45
		{"fence", func(d *Device, ctx *sim.Ctx) {
			d.Fence(ctx)
		}, m.FenceLat}, // 30
		{"zero 4KiB", func(d *Device, ctx *sim.Ctx) {
			d.Zero(ctx, 0, 4096)
		}, int64(4096*m.ZeroNSPerByte) + xfer(4096, m.WriteBandwidth)}, // 819+1024
	}
	for _, tc := range cases {
		d := New(16 << 20)
		ctx := sim.NewCtx(1, 0)
		before := ctx.Now()
		tc.op(d, ctx)
		got := ctx.Now() - before
		if got != tc.want {
			t.Errorf("%s: charged %dns, want %dns", tc.name, got, tc.want)
		}
		d.Release()
	}
}

// TestChargeZeroAndNegativeAreNoOps pins the audit outcome for degenerate
// charges: zero-length operations must not advance the clock, and the
// Advance primitive must ignore negative values (virtual time never runs
// backwards, even if a cost computation underflows).
func TestChargeZeroAndNegativeAreNoOps(t *testing.T) {
	d := New(1 << 20)
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	d.Read(ctx, nil, 0)
	d.Write(ctx, nil, 0)
	d.WriteNT(ctx, nil, 3)
	d.Flush(ctx, 0, 0)
	d.Zero(ctx, 0, 0)
	ctx.Advance(-5)
	if ctx.Now() != 0 {
		t.Fatalf("degenerate ops advanced the clock to %d", ctx.Now())
	}
}
