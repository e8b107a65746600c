package fstest

// Policy tests: verify that each baseline file system exhibits the
// specific behaviour the paper attributes to it, beyond the generic
// conformance suite.

import (
	"testing"

	"repro/internal/ext4dax"
	"repro/internal/mmu"
	"repro/internal/nova"
	"repro/internal/pmem"
	"repro/internal/pmfs"
	"repro/internal/sim"
	"repro/internal/splitfs"
	"repro/internal/strata"
	"repro/internal/vfs"
)

func TestExt4GoalExtension(t *testing.T) {
	// Contiguity first: sequential appends to one file stay physically
	// contiguous (one extent), the locality preference that costs ext4 its
	// alignment under aging.
	ctx := sim.NewCtx(1, 0)
	fs := ext4dax.New(pmem.New(256 << 20))
	f, _ := fs.Create(ctx, "/grow")
	for i := 0; i < 64; i++ {
		if _, err := f.Append(ctx, make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if exts := f.Extents(); len(exts) != 1 {
		t.Fatalf("goal extension broken: %d extents", len(exts))
	}
}

func TestExt4ZeroOnFaultCost(t *testing.T) {
	// Fallocate is cheap; the zeroing bill arrives at fault time (§5.4's
	// PmemKV analysis).
	ctx := sim.NewCtx(1, 0)
	fs := ext4dax.New(pmem.New(256 << 20))
	f, _ := fs.Create(ctx, "/pool")
	if err := f.Fallocate(ctx, 0, 8<<20); err != nil {
		t.Fatal(err)
	}
	allocZero := ctx.Counters.ZeroNS
	m, _ := f.Mmap(ctx, 8<<20)
	bench := sim.NewCtx(2, 0)
	bench.AdvanceTo(ctx.Now())
	if err := m.Touch(bench, 0, 8<<20, true); err != nil {
		t.Fatal(err)
	}
	if allocZero != 0 {
		t.Fatalf("ext4 zeroed at fallocate: %d", allocZero)
	}
	if bench.Counters.ZeroNS == 0 {
		t.Fatal("ext4 did not zero at fault time")
	}

	// NOVA is the opposite: zero at fallocate, cheap faults.
	nctx := sim.NewCtx(3, 0)
	nfs := nova.New(pmem.New(256<<20), nova.Options{CPUs: 2})
	nf, _ := nfs.Create(nctx, "/pool")
	if err := nf.Fallocate(nctx, 0, 8<<20); err != nil {
		t.Fatal(err)
	}
	if nctx.Counters.ZeroNS == 0 {
		t.Fatal("NOVA should zero at fallocate")
	}
	nm, _ := nf.Mmap(nctx, 8<<20)
	nbench := sim.NewCtx(4, 0)
	nbench.AdvanceTo(nctx.Now())
	if err := nm.Touch(nbench, 0, 8<<20, true); err != nil {
		t.Fatal(err)
	}
	if nbench.Counters.ZeroNS != 0 {
		t.Fatal("NOVA should not zero at fault time")
	}
}

func TestNOVAPerInodeLogConsumesSpace(t *testing.T) {
	// Every create allocates a log block from the data area — the
	// fragmentation driver §3.4 calls out.
	ctx := sim.NewCtx(1, 0)
	fs := nova.New(pmem.New(256<<20), nova.Options{CPUs: 2})
	before := fs.StatFS(ctx).FreeBlocks
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := fs.Create(ctx, "/f"+itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	used := before - fs.StatFS(ctx).FreeBlocks
	if used < n {
		t.Fatalf("creates used %d blocks, want ≥%d (per-inode logs)", used, n)
	}
	// Deleting returns the files' log blocks; the root directory's own
	// log legitimately grew with the 200 namespace operations, so allow a
	// small residue for it.
	for i := 0; i < n; i++ {
		if err := fs.Unlink(ctx, "/f"+itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.StatFS(ctx).FreeBlocks; got < before-16 {
		t.Fatalf("log blocks leaked: %d vs %d", got, before)
	}
}

func TestNOVAOverwriteCoWMovesBlocks(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs := nova.New(pmem.New(256<<20), nova.Options{CPUs: 2})
	f, _ := fs.Create(ctx, "/x")
	f.WriteAt(ctx, make([]byte, 64<<10), 0)
	before := f.Extents()
	if _, err := f.WriteAt(ctx, make([]byte, 4096), 8192); err != nil {
		t.Fatal(err)
	}
	after := f.Extents()
	phys := func(exts []mmu.Extent, off int64) int64 {
		for _, e := range exts {
			if off >= e.FileOff && off < e.FileOff+e.Len {
				return e.Phys + (off - e.FileOff)
			}
		}
		return 0
	}
	if phys(before, 8192) == phys(after, 8192) {
		t.Fatal("strict NOVA overwrite did not copy-on-write")
	}
	if ctx.Counters.CoWCopies == 0 {
		t.Fatal("no CoW recorded")
	}
}

func TestPMFSLinearDirectoryScans(t *testing.T) {
	// PMFS lookup cost grows with directory size (no DRAM index), the
	// varmail weakness §5.5 describes.
	cost := func(entries int) int64 {
		ctx := sim.NewCtx(1, 0)
		fs := pmfs.New(pmem.New(256 << 20))
		for i := 0; i < entries; i++ {
			fs.Create(ctx, "/f"+itoa(i))
		}
		probe := sim.NewCtx(2, 0)
		probe.AdvanceTo(ctx.Now())
		t0 := probe.Now()
		for i := 0; i < 50; i++ {
			fs.Stat(probe, "/f0")
		}
		return probe.Now() - t0
	}
	small, large := cost(10), cost(1000)
	if large < small*5 {
		t.Fatalf("PMFS lookups should scale with dir size: %d vs %d", small, large)
	}

	// ext4's hashed directories stay flat.
	ecost := func(entries int) int64 {
		ctx := sim.NewCtx(1, 0)
		fs := ext4dax.New(pmem.New(256 << 20))
		for i := 0; i < entries; i++ {
			fs.Create(ctx, "/f"+itoa(i))
		}
		probe := sim.NewCtx(2, 0)
		probe.AdvanceTo(ctx.Now())
		t0 := probe.Now()
		for i := 0; i < 50; i++ {
			fs.Stat(probe, "/f0")
		}
		return probe.Now() - t0
	}
	esmall, elarge := ecost(10), ecost(1000)
	if elarge > esmall*2 {
		t.Fatalf("ext4 lookups should not scale with dir size: %d vs %d", esmall, elarge)
	}
}

func TestSplitFSCheapAppendsExpensiveNamespace(t *testing.T) {
	// Appends bypass the journal (staged); creates pay JBD2 like ext4.
	ctx := sim.NewCtx(1, 0)
	sfs := splitfs.New(pmem.New(256 << 20))
	efs := ext4dax.New(pmem.New(256 << 20))

	appendCost := func(fs vfs.FS, id int) int64 {
		c := sim.NewCtx(10+id, 0)
		f, _ := fs.Create(c, "/a")
		t0 := c.Now()
		for i := 0; i < 200; i++ {
			f.Append(c, make([]byte, 1024))
		}
		return c.Now() - t0
	}
	if sa, ea := appendCost(sfs, 1), appendCost(efs, 2); sa >= ea {
		t.Fatalf("SplitFS appends not cheaper: splitfs=%d ext4=%d", sa, ea)
	}
	_ = ctx
}

func TestStrataDigestionDoublesWriteTraffic(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs := strata.New(pmem.New(256 << 20))
	f, _ := fs.Create(ctx, "/x")
	n := int64(1 << 20)
	before := ctx.Counters.PMWriteBytes
	if _, err := f.WriteAt(ctx, make([]byte, n), 0); err != nil {
		t.Fatal(err)
	}
	written := ctx.Counters.PMWriteBytes - before
	// Log write + digestion copy ≈ 2× the payload.
	if written < 2*n {
		t.Fatalf("strata wrote %d bytes for a %d-byte write, want ≥2x", written, n)
	}
}

func TestFsbaseUnwrittenSplitOnFault(t *testing.T) {
	// Faulting one page of a fallocated ext4 file converts exactly that
	// page; a syscall read of a neighbouring unwritten page still sees
	// zeros even after mmap writes elsewhere.
	ctx := sim.NewCtx(1, 0)
	fs := ext4dax.New(pmem.New(256 << 20))
	f, _ := fs.Create(ctx, "/u")
	if err := f.Fallocate(ctx, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	m, _ := f.Mmap(ctx, 1<<20)
	if err := m.Write(ctx, []byte{0xAA}, 8192); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(ctx, b[:], 8192); err != nil || b[0] != 0xAA {
		t.Fatalf("faulted page lost its data: %v %x", err, b[0])
	}
	if _, err := f.ReadAt(ctx, b[:], 64<<10); err != nil || b[0] != 0 {
		t.Fatalf("unwritten page not zero: %v %x", err, b[0])
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
