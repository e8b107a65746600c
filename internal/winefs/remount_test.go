package winefs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// tree lists the paths of a mount's files and of its directories, the root
// included, in the order vfs.Walk meets them.
func tree(t *testing.T, ctx *sim.Ctx, fs *FS) (files, dirs []string) {
	t.Helper()
	err := vfs.Walk(ctx, fs, func(p string, e vfs.DirEntry, err error) error {
		switch {
		case err != nil:
			return fmt.Errorf("readdir %s: %w", p, err)
		case e.IsDir:
			dirs = append(dirs, p)
		default:
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, dirs
}

// remountEquivalent holds the mount to the rule the test is named for: what
// is visible now is what a crash-mount of the device's bytes shows, and what
// a clean Unmount+Mount shows, with Audit clean on all three. It returns the
// remounted file system; the caller goes on with that one.
func remountEquivalent(t *testing.T, ctx *sim.Ctx, fs *FS, dev *pmem.Device, opts Options, when string) *FS {
	t.Helper()
	want := vfs.State(ctx, fs)
	if strings.Contains(want, " ERR ") || strings.Contains(want, "=EIO") {
		t.Fatalf("%s: the live mount cannot show all of itself:\n%s", when, want)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("%s: audit of the live mount: %v", when, err)
	}
	same := func(how string, re *FS) {
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
	crashed := pmem.New(dev.Size())
	crashed.Restore(dev.Snapshot())
	cfs, err := Mount(ctx, crashed, opts)
	if err != nil {
		t.Fatalf("%s: crash mount: %v", when, err)
	}
	same("a crash mount", cfs)
	if err := fs.Unmount(ctx); err != nil {
		t.Fatalf("%s: unmount: %v", when, err)
	}
	rfs, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatalf("%s: mount: %v", when, err)
	}
	same("a clean remount", rfs)
	return rfs
}

// mappedStore is mmap, store, msync, munmap of one byte range.
func mappedStore(ctx *sim.Ctx, f vfs.File, p []byte, off int64) error {
	m, err := vmm.Map(ctx, f, f.Size(), vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		return err
	}
	if err := m.Write(ctx, p, off); err != nil {
		m.Close(ctx)
		return err
	}
	if err := m.Msync(ctx, off, int64(len(p))); err != nil {
		m.Close(ctx)
		return err
	}
	return m.Close(ctx)
}

// TestRemountEquivalence: nothing an operation reported done may depend on
// the DRAM image for its survival. The first rows are the bugs that made
// the rule worth a test — a relaxed-mode write into the holes of a
// truncate-grown file, and msync'ed stores through a mapping of a sparse
// file, both attached extent records the header's count never learned of,
// so a clean remount read the pages back as zeros and leaked their blocks —
// and then a seeded random sequence over every operation that changes an
// inode is held to it every few steps, in both modes.
func TestRemountEquivalence(t *testing.T) {
	for _, mode := range []vfs.ConsistencyMode{vfs.Strict, vfs.Relaxed} {
		opts := Options{CPUs: 2, Mode: mode, InodesPerCPU: 256}
		mk := func(t *testing.T) (*sim.Ctx, *pmem.Device, *FS) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(64 << 20)
			fs, err := Mkfs(ctx, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			return ctx, dev, fs
		}
		name := map[vfs.ConsistencyMode]string{vfs.Strict: "strict", vfs.Relaxed: "relaxed"}[mode]
		page := bytes.Repeat([]byte{0xC3}, BlockSize)

		t.Run(name+"/writes into the holes of a truncate-grown file", func(t *testing.T) {
			ctx, dev, fs := mk(t)
			f, err := fs.Create(ctx, "/sparse")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(ctx, 64*BlockSize); err != nil {
				t.Fatal(err)
			}
			for _, blk := range []int64{3, 17, 40} {
				if _, err := f.WriteAt(ctx, page, blk*BlockSize); err != nil {
					t.Fatal(err)
				}
			}
			remountEquivalent(t, ctx, fs, dev, opts, "after three hole writes")
		})
		t.Run(name+"/msync'ed stores through a mapping of a sparse file", func(t *testing.T) {
			ctx, dev, fs := mk(t)
			f, err := fs.Create(ctx, "/sparse")
			if err != nil {
				t.Fatal(err)
			}
			// 6MiB: the stores at 0 and 2MiB fault whole aligned chunks in,
			// the one in the last, partial chunk a single base page.
			if err := f.Truncate(ctx, 6<<20-BlockSize); err != nil {
				t.Fatal(err)
			}
			for _, off := range []int64{5 * BlockSize, 2<<20 + 100, 5<<20 + 17} {
				if err := mappedStore(ctx, f, page[:1000], off); err != nil {
					t.Fatal(err)
				}
			}
			remountEquivalent(t, ctx, fs, dev, opts, "after three mapped stores")
		})

		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/random sequence, seed %d", name, seed), func(t *testing.T) {
				ctx, dev, fs := mk(t)
				rng := sim.NewRand(seed)
				const steps, every = 160, 8
				next := 0 // names are never reused: a stale path is a plain ErrNotExist
				for step := 1; step <= steps; step++ {
					files, dirs := tree(t, ctx, fs)
					what, err := randomOp(ctx, fs, rng, files, dirs, &next)
					if err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					if step%every == 0 {
						fs = remountEquivalent(t, ctx, fs, dev, opts, fmt.Sprintf("step %d (%s)", step, what))
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
	opts := Options{CPUs: 1, Mode: vfs.Strict}
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := Mkfs(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(ctx, "/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(ctx, 64*BlockSize); err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xC3}, BlockSize)
	for _, blk := range []int64{3, 17, 40} {
		if _, err := f.WriteAt(ctx, page, blk*BlockSize+100); err != nil {
			t.Fatal(err)
		}
	}
	if n := ctx.Counters.CoWCopies; n != 0 {
		t.Fatalf("three strict writes into holes copied %d blocks on write", n)
	}
	if _, err := f.WriteAt(ctx, bytes.Repeat([]byte{0x3C}, 2*BlockSize), 41*BlockSize); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Counters.CoWCopies; n != 1 {
		t.Fatalf("a write over block 41 (written before) and 42 (a hole) copied %d blocks, want 1", n)
	}
	remountEquivalent(t, ctx, fs, dev, opts, "after strict writes into holes")
}

// randomOp runs one random operation of TestRemountEquivalence's mix and
// says what it was. Errors POSIX prescribes for the picked arguments (a
// rename onto a non-empty directory, an rmdir of one) are not errors here.
func randomOp(ctx *sim.Ctx, fs *FS, rng *sim.Rand, files, dirs []string, next *int) (what string, err error) {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	fresh := func(prefix string) string {
		*next++
		return strings.TrimSuffix(pick(dirs), "/") + fmt.Sprintf("/%s%d", prefix, *next)
	}
	data := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(1 + rng.Intn(255)) // never zero: a lost page must not look like a hole
		}
		return p
	}
	benign := func(err error, ok ...error) error {
		for _, e := range ok {
			if err == e {
				return nil
			}
		}
		return err
	}
	r := rng.Intn(16)
	if len(files) == 0 || r == 0 {
		p := fresh("f")
		_, err := fs.Create(ctx, p)
		return "create " + p, err
	}
	switch r {
	case 1:
		p := fresh("d")
		return "mkdir " + p, fs.Mkdir(ctx, p)
	case 2:
		p := pick(files)
		return "unlink " + p, fs.Unlink(ctx, p)
	case 3:
		p := pick(dirs)
		return "rmdir " + p, benign(fs.Rmdir(ctx, p), vfs.ErrNotEmpty, vfs.ErrExist) // ErrExist: the root
	case 4: // a file to a new name or onto another file; a directory to a new name or onto another
		from, to := pick(files), fresh("r")
		switch rng.Intn(4) {
		case 0:
			to = pick(files)
		case 1:
			from = pick(dirs)
		case 2:
			from, to = pick(dirs), pick(dirs)
		}
		return "rename " + from + " " + to, benign(fs.Rename(ctx, from, to), vfs.ErrNotEmpty, vfs.ErrInvalid, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir)
	}
	p := pick(files)
	f, err := fs.Open(ctx, p)
	if err != nil {
		return "open " + p, err
	}
	size := f.Size()
	within := func() int64 { return rng.Int63n(size + 1) }
	switch r {
	case 5, 6: // sparse growth, by up to a few hugepages
		n := size + rng.Int63n(5<<20)
		return fmt.Sprintf("truncate %s up to %d", p, n), f.Truncate(ctx, n)
	case 7:
		n := within()
		return fmt.Sprintf("truncate %s down to %d", p, n), f.Truncate(ctx, n)
	case 8, 9: // into a hole, over existing bytes, or both
		off, n := within(), 1+rng.Intn(3*BlockSize)
		what = fmt.Sprintf("write %s [%d,+%d)", p, off, n)
		_, err = f.WriteAt(ctx, data(n), off)
	case 10: // straddling EOF
		n := 1 + rng.Intn(2*BlockSize)
		off := max(0, size-int64(rng.Intn(n)))
		what = fmt.Sprintf("write %s [%d,+%d) across eof %d", p, off, n, size)
		_, err = f.WriteAt(ctx, data(n), off)
	case 11:
		n := 1 + rng.Intn(3*BlockSize)
		what = fmt.Sprintf("append %s +%d", p, n)
		_, err = f.Append(ctx, data(n))
	case 12:
		off, n := within(), 1+rng.Int63n(1<<20)
		return fmt.Sprintf("fallocate %s [%d,+%d)", p, off, n), f.Fallocate(ctx, off, n)
	case 13:
		off, n := within(), 1+rng.Int63n(1<<20)
		return fmt.Sprintf("punch %s [%d,+%d)", p, off, n), f.(*File).PunchHole(ctx, off, n)
	default: // a mapped store, demand-faulting whatever it lands on
		if size == 0 {
			return "mapped store skipped: " + p + " is empty", nil
		}
		off := rng.Int63n(size)
		n := int(min(size-off, int64(1+rng.Intn(2*BlockSize))))
		what = fmt.Sprintf("mapped store %s [%d,+%d)", p, off, n)
		err = mappedStore(ctx, f, data(n), off)
	}
	return what, err
}
