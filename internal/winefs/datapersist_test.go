package winefs_test

import (
	"fmt"
	"testing"

	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// File data reaches PM as a non-temporal copy (pmem.WriteNT): no clwb per
// data line, no flush owed at fsync. These tests pin what that costs.

// TestRelaxedFsyncIsSyscallPlusFence: a relaxed fsync costs exactly the
// syscall and one fence, whichever handle wrote the data and however much
// of it is outstanding. There is no per-handle dirty count that a second
// handle could miss, and no per-line flush formula to pay.
func TestRelaxedFsyncIsSyscallPlusFence(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 1, Mode: vfs.Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	m := dev.Model()
	want := m.SyscallNS + m.FenceLat
	writer, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	other, err := fs.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	fsync := func(f vfs.File, what string) {
		t.Helper()
		start := ctx.Now()
		if err := f.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Now() - start; got != want {
			t.Errorf("%s: fsync charged %dns, want SyscallNS+FenceLat = %dns", what, got, want)
		}
	}
	fsync(writer, "nothing written")
	var off int64
	for _, n := range []int64{1, 100, 4096, 1 << 20} {
		if _, err := writer.WriteAt(ctx, make([]byte, n), off); err != nil {
			t.Fatal(err)
		}
		off += n
		fsync(other, fmt.Sprintf("%d bytes written through the other handle", n))
		if _, err := writer.WriteAt(ctx, make([]byte, n), off); err != nil {
			t.Fatal(err)
		}
		off += n
		fsync(writer, fmt.Sprintf("%d bytes written through this handle", n))
	}
}

// TestWriteAtFlushesOnlyEdgeLines weighs a WriteAt's clwb on the clock, as
// TestRewriteCopiesNonTemporallyAndFencesEachCopy does: the same overwrite
// runs under FlushLat 0 and 8, and a one-line flush costs FlushLat, so the
// clocks differ by 8ns per flushed line. The overwrite stays inside one
// already-written hugepage extent, so it touches no metadata: in both
// modes an aligned 64KiB buffer flushes no line, and an unaligned one only
// its two partial edge lines.
func TestWriteAtFlushesOnlyEdgeLines(t *testing.T) {
	const size = 64 << 10
	elapsed := func(mode vfs.ConsistencyMode, flushLat, off int64) int64 {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(64 << 20)
		dev.Model().FlushLat = flushLat
		fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 1, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, make([]byte, mmu.HugePage), 0); err != nil {
			t.Fatal(err)
		}
		start := ctx.Now()
		if _, err := f.WriteAt(ctx, make([]byte, size), off); err != nil {
			t.Fatal(err)
		}
		return ctx.Now() - start
	}
	for _, mode := range []vfs.ConsistencyMode{vfs.Strict, vfs.Relaxed} {
		for _, tc := range []struct {
			off   int64
			lines int64
		}{
			{0, 0},         // aligned: every line streams past the cache
			{4096 + 8, 2},  // head and tail lines are both partial
			{4096 + 64, 0}, // line-aligned but not block-aligned
		} {
			flushed := elapsed(mode, 8, tc.off) - elapsed(mode, 0, tc.off)
			if flushed != 8*tc.lines {
				t.Errorf("%v WriteAt of %d bytes at %d: flushes cost %dns, want %d lines = %dns",
					mode, size, tc.off, flushed, tc.lines, 8*tc.lines)
			}
		}
	}
}
