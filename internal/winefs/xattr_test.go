package winefs_test

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// TestDirectoryXattrInheritance covers §3.6's directory-level alignment
// attribute: files created directly inside a hinted directory inherit the
// hint, so even an rsync-style receiver doing small writes gets aligned
// extents.
func TestDirectoryXattrInheritance(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(512 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/incoming"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetPathXattr(ctx, "/incoming", vfs.XattrAligned, []byte("1")); err != nil {
		t.Fatal(err)
	}

	// rsync-style receive: many small sequential writes.
	f, err := fs.Create(ctx, "/incoming/restored")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.GetXattr(ctx, vfs.XattrAligned); !ok {
		t.Fatal("child did not inherit the directory's alignment attribute")
	}
	chunk := make([]byte, 32<<10)
	for off := int64(0); off < 4<<20; off += int64(len(chunk)) {
		if _, err := f.WriteAt(ctx, chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	for chunkOff := int64(0); chunkOff < 4<<20; chunkOff += mmu.HugePage {
		if !hugeAt(f, chunkOff) {
			t.Fatalf("hinted file not hugepage-eligible at %d: %+v", chunkOff, f.Extents())
		}
	}

	// A sibling directory without the hint gets hole-backed small files.
	if err := fs.Mkdir(ctx, "/plain"); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create(ctx, "/plain/file")
	if _, ok := g.GetXattr(ctx, vfs.XattrAligned); ok {
		t.Fatal("unhinted directory leaked the attribute")
	}
}

// TestXattrSurvivesRemount: the hint is persistent metadata.
func TestXattrSurvivesRemount(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(256 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	f, _ := fs.Create(ctx, "/hinted")
	if err := f.SetXattr(ctx, vfs.XattrAligned, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(ctx); err != nil {
		t.Fatal(err)
	}
	rctx := sim.NewCtx(2, 0)
	rfs, err := winefs.Mount(rctx, dev, winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rfs.Open(rctx, "/hinted")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.GetXattr(rctx, vfs.XattrAligned); !ok {
		t.Fatal("alignment attribute lost across remount")
	}
}

// TestRsyncScenario is the paper's §3.6 end-to-end story: a file with
// aligned extents on partition A is copied (with its xattr) to partition
// B by a tool doing small writes; B's copy still gets aligned extents.
func TestRsyncScenario(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	devA := pmem.New(256 << 20)
	devB := pmem.New(256 << 20)
	fsA, _ := winefs.Mkfs(ctx, devA, winefs.Options{CPUs: 2})
	fsB, _ := winefs.Mkfs(ctx, devB, winefs.Options{CPUs: 2})

	src, _ := fsA.Create(ctx, "/big")
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := src.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	src.SetXattr(ctx, vfs.XattrAligned, []byte("1"))

	// "rsync": read source, create destination, copy the xattr first (as
	// rsync -X does), then stream in small chunks.
	dst, _ := fsB.Create(ctx, "/big")
	if val, ok := src.GetXattr(ctx, vfs.XattrAligned); ok {
		dst.SetXattr(ctx, vfs.XattrAligned, val)
	}
	buf := make([]byte, 16<<10)
	for off := int64(0); off < int64(len(payload)); off += int64(len(buf)) {
		if _, err := src.ReadAt(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.WriteAt(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	// The receiving partition allocated aligned extents despite the small
	// writes.
	for chunkOff := int64(0); chunkOff < 4<<20; chunkOff += mmu.HugePage {
		if !hugeAt(dst, chunkOff) {
			t.Fatalf("rsync'd file lost alignment at %d", chunkOff)
		}
	}
	// And the content survived.
	got := make([]byte, len(payload))
	if _, err := dst.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}
