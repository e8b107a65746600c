package winefs_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// remountEquivalent holds the mount to the rule the test is named for: what
// is visible now is what a crash-mount of the device's bytes shows, and what
// a clean Unmount+Mount shows, with Audit clean on all three. It returns the
// remounted file system; the caller goes on with that one.
func remountEquivalent(t *testing.T, ctx *sim.Ctx, fs *winefs.FS, dev *pmem.Device, opts winefs.Options, when string) *winefs.FS {
	t.Helper()
	want := vfs.State(ctx, fs)
	if strings.Contains(want, " ERR ") || strings.Contains(want, "=EIO") {
		t.Fatalf("%s: the live mount cannot show all of itself:\n%s", when, want)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("%s: audit of the live mount: %v", when, err)
	}
	same := func(how string, re *winefs.FS) {
		t.Helper()
		if _, deg := re.Degraded(); deg {
			t.Fatalf("%s: %s degraded: %v", when, how, re.DegradedReasons())
		}
		if got := vfs.State(ctx, re); got != want {
			t.Fatalf("%s: %s shows another file system\nlive:\n%s\n%s:\n%s", when, how, want, how, got)
		}
		if err := re.Audit(ctx); err != nil {
			t.Fatalf("%s: audit after %s: %v", when, how, err)
		}
	}
	crashed := dev.Snapshot()
	cfs, err := winefs.Mount(ctx, crashed, opts)
	if err != nil {
		t.Fatalf("%s: crash mount: %v", when, err)
	}
	same("a crash mount", cfs)
	if err := fs.Unmount(ctx); err != nil {
		t.Fatalf("%s: unmount: %v", when, err)
	}
	rfs, err := winefs.Mount(ctx, dev, opts)
	if err != nil {
		t.Fatalf("%s: mount: %v", when, err)
	}
	same("a clean remount", rfs)
	return rfs
}

// mkfs formats a 64MiB device and applies ops to the new file system.
func mkfs(t *testing.T, opts winefs.Options, ops ...fstest.Op) (*sim.Ctx, *pmem.Device, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := winefs.Mkfs(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if err := fstest.Apply(ctx, fs, o); err != nil {
			t.Fatalf("%s: %v", o, err)
		}
	}
	return ctx, dev, fs
}

// refused reports whether err is what POSIX prescribes for arguments
// fstest.Gen may pick: an rmdir of the root or of a non-empty directory, a
// rename onto a non-empty directory, into its own subtree or of one kind
// onto the other.
func refused(o fstest.Op, err error) bool {
	switch o.Kind {
	case fstest.Rmdir:
		return err == vfs.ErrNotEmpty || err == vfs.ErrExist // ErrExist: the root
	case fstest.Rename:
		return slices.Contains([]error{vfs.ErrNotEmpty, vfs.ErrInvalid, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir}, err)
	}
	return false
}

// TestRemountEquivalence: nothing an operation reported done may depend on
// the DRAM image for its survival. The first rows are the bugs that made
// the rule worth a test — a relaxed-mode write into the holes of a
// truncate-grown file, and msync'ed stores through a mapping of a sparse
// file, both attached extent records the header's count never learned of,
// so a clean remount read the pages back as zeros and leaked their blocks —
// and then a seeded fstest.Gen sequence over every operation that changes
// an inode is held to it every few steps, in both modes.
func TestRemountEquivalence(t *testing.T) {
	const bs = winefs.BlockSize
	page := bytes.Repeat([]byte{0xC3}, bs)
	fixed := []struct {
		name string
		ops  []fstest.Op
	}{
		{"writes into the holes of a truncate-grown file", []fstest.Op{
			{Kind: fstest.Create, A: "/sparse"},
			{Kind: fstest.Truncate, A: "/sparse", Size: 64 * bs},
			{Kind: fstest.Write, A: "/sparse", Off: 3 * bs, Data: page},
			{Kind: fstest.Write, A: "/sparse", Off: 17 * bs, Data: page},
			{Kind: fstest.Write, A: "/sparse", Off: 40 * bs, Data: page},
		}},
		// 6MiB: the stores at 0 and 2MiB fault whole aligned chunks in, the
		// one in the last, partial chunk a single base page.
		{"msync'ed stores through a mapping of a sparse file", []fstest.Op{
			{Kind: fstest.Create, A: "/sparse"},
			{Kind: fstest.Truncate, A: "/sparse", Size: 6<<20 - bs},
			{Kind: fstest.MapStore, A: "/sparse", Off: 5 * bs, Data: page[:1000]},
			{Kind: fstest.MapStore, A: "/sparse", Off: 2<<20 + 100, Data: page[:1000]},
			{Kind: fstest.MapStore, A: "/sparse", Off: 5<<20 + 17, Data: page[:1000]},
		}},
	}
	for _, mode := range []vfs.ConsistencyMode{vfs.Strict, vfs.Relaxed} {
		opts := winefs.Options{CPUs: 2, Mode: mode, InodesPerCPU: 256}
		name := map[vfs.ConsistencyMode]string{vfs.Strict: "strict", vfs.Relaxed: "relaxed"}[mode]
		for _, fx := range fixed {
			t.Run(name+"/"+fx.name, func(t *testing.T) {
				ctx, dev, fs := mkfs(t, opts, fx.ops...)
				remountEquivalent(t, ctx, fs, dev, opts, "after "+fx.name)
			})
		}
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/random sequence, seed %d", name, seed), func(t *testing.T) {
				ctx, dev, fs := mkfs(t, opts)
				gen := fstest.NewGen(seed)
				const steps, every = 160, 8
				for step := 1; step <= steps; step++ {
					o, err := gen.Next(ctx, fs)
					if err == nil {
						err = fstest.Apply(ctx, fs, o)
					}
					if err != nil && !refused(o, err) {
						t.Fatalf("step %d: %s: %v", step, o, err)
					}
					if step%every == 0 {
						fs = remountEquivalent(t, ctx, fs, dev, opts, fmt.Sprintf("step %d (%s)", step, o))
					}
				}
			})
		}
	}
}

// TestStrictHoleWriteDoesNotCopy: a strict write into the holes of a
// truncate-grown file writes the blocks it allocates in place — they held
// nothing, so there is nothing to copy on write — and what it wrote
// survives a crash mount and a clean remount. A write over an old block
// and a hole after it copies the old block only, though the new one may
// have merged into its extent.
func TestStrictHoleWriteDoesNotCopy(t *testing.T) {
	const bs = winefs.BlockSize
	opts := winefs.Options{CPUs: 1, Mode: vfs.Strict}
	page := bytes.Repeat([]byte{0xC3}, bs)
	ops := []fstest.Op{{Kind: fstest.Create, A: "/sparse"}, {Kind: fstest.Truncate, A: "/sparse", Size: 64 * bs}}
	for _, blk := range []int64{3, 17, 40} {
		ops = append(ops, fstest.Op{Kind: fstest.Write, A: "/sparse", Off: blk*bs + 100, Data: page})
	}
	ctx, dev, fs := mkfs(t, opts, ops...)
	if n := ctx.Counters.CoWCopies; n != 0 {
		t.Fatalf("three strict writes into holes copied %d blocks on write", n)
	}
	if err := fstest.Apply(ctx, fs, fstest.Op{Kind: fstest.Write, A: "/sparse", Off: 41 * bs, Data: bytes.Repeat([]byte{0x3C}, 2*bs)}); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Counters.CoWCopies; n != 1 {
		t.Fatalf("a write over block 41 (written before) and 42 (a hole) copied %d blocks, want 1", n)
	}
	remountEquivalent(t, ctx, fs, dev, opts, "after strict writes into holes")
}
