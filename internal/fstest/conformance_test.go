package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

// forAll runs fn against every file system implementation.
func forAll(t *testing.T, fn func(t *testing.T, fs vfs.FS, ctx *sim.Ctx)) {
	for _, m := range All(4) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(256 << 20)
			fs, err := m.Make(ctx, dev)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, fs, ctx)
			// Whatever the test did, WineFS's DRAM image, its allocator and
			// the media must agree when it is done.
			if w, ok := fs.(*winefs.FS); ok && !t.Failed() {
				if err := w.Audit(ctx); err != nil {
					t.Fatalf("audit after the test: %v", err)
				}
			}
		})
	}
}

func TestConformanceBasicIO(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		f, err := fs.Create(ctx, "/file")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 100000)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if n, err := f.WriteAt(ctx, data, 0); err != nil || n != len(data) {
			t.Fatalf("write: %d %v", n, err)
		}
		got := make([]byte, len(data))
		if n, err := f.ReadAt(ctx, got, 0); err != nil || n != len(data) {
			t.Fatalf("read: %d %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if err := f.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		if f.Size() != int64(len(data)) {
			t.Fatalf("size %d", f.Size())
		}
	})
}

func TestConformanceOverwriteMiddle(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		base := bytes.Repeat([]byte{0xAA}, 32<<10)
		patch := bytes.Repeat([]byte{0xBB}, 3000)
		run(t, ctx, fs, []Step{
			{Op{Kind: Create, A: "/f"}, nil},
			{Op{Kind: Write, A: "/f", Data: base}, nil},
			{Op{Kind: Write, A: "/f", Off: 5123, Data: patch}, nil},
		})
		want := append([]byte{}, base...)
		copy(want[5123:], patch)
		if !bytes.Equal(contents(t, ctx, fs, "/f"), want) {
			t.Fatal("overwrite corrupted content")
		}
	})
}

func TestConformanceAppendStream(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		f, _ := fs.Create(ctx, "/log")
		var want []byte
		for i := 0; i < 100; i++ {
			rec := bytes.Repeat([]byte{byte(i)}, 777)
			if _, err := f.Append(ctx, rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
		}
		got := make([]byte, len(want))
		if n, _ := f.ReadAt(ctx, got, 0); n != len(want) {
			t.Fatalf("short read %d", n)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("append stream mismatch")
		}
	})
}

// run replays steps on fs and fails t at the first that goes wrong.
func run(t *testing.T, ctx *sim.Ctx, fs vfs.FS, steps []Step) {
	t.Helper()
	if err := Replay(ctx, fs, steps); err != nil {
		t.Fatal(err)
	}
}

// contents is all of path's bytes.
func contents(t *testing.T, ctx *sim.Ctx, fs vfs.FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(ctx)
	p := make([]byte, f.Size())
	if n, err := f.ReadAt(ctx, p, 0); n != len(p) {
		t.Fatalf("read %s: %d of %d bytes: %v", path, n, len(p), err)
	}
	return p
}

func TestConformanceNamespace(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		run(t, ctx, fs, []Step{
			{Op{Kind: Mkdir, A: "/a"}, nil},
			{Op{Kind: Mkdir, A: "/a/b"}, nil},
			{Op{Kind: Create, A: "/a/b/c"}, nil},
			{Op{Kind: Rename, A: "/a/b/c", B: "/a/c2"}, nil},
		})
		if _, err := fs.Stat(ctx, "/a/b/c"); err != vfs.ErrNotExist {
			t.Fatalf("stat moved: %v", err)
		}
		// A rename onto itself succeeds and changes nothing; one of a
		// directory into its own subtree is refused and detaches nothing.
		run(t, ctx, fs, []Step{{Op{Kind: Rename, A: "/a/c2", B: "/a/c2"}, nil}})
		if fi, err := fs.Stat(ctx, "/a/c2"); err != nil || fi.IsDir {
			t.Fatalf("stat after rename onto itself: %+v, %v", fi, err)
		}
		run(t, ctx, fs, []Step{
			{Op{Kind: Rename, A: "/a/missing", B: "/a/missing"}, vfs.ErrNotExist},
			{Op{Kind: Rename, A: "/a", B: "/a/b/a2"}, vfs.ErrInvalid},
		})
		if _, err := fs.Stat(ctx, "/a/b"); err != nil {
			t.Fatalf("subtree after the refused rename: %v", err)
		}
		// A rename replaces a name by its own kind only, and a directory that
		// moves takes the link of its ".." from one parent to the other.
		nlink := func(path string, want int) {
			t.Helper()
			if fi, err := fs.Stat(ctx, path); err != nil || fi.Nlink != want {
				t.Fatalf("stat %s: nlink %d, %v; want %d", path, fi.Nlink, err, want)
			}
		}
		run(t, ctx, fs, []Step{
			{Op{Kind: Mkdir, A: "/a/sub"}, nil},
			{Op{Kind: Mkdir, A: "/b"}, nil},
			{Op{Kind: Mkdir, A: "/b/empty"}, nil},
			{Op{Kind: Rename, A: "/a/c2", B: "/b/empty"}, vfs.ErrIsDir},
			{Op{Kind: Rename, A: "/b/empty", B: "/a/c2"}, vfs.ErrNotDir},
			{Op{Kind: Rename, A: "/a/b", B: "/b"}, vfs.ErrNotEmpty},
		})
		nlink("/a", 4) // b, sub
		nlink("/b", 3) // empty
		run(t, ctx, fs, []Step{{Op{Kind: Rename, A: "/a/sub", B: "/b/sub"}, nil}})
		nlink("/a", 3)
		nlink("/b", 4)
		run(t, ctx, fs, []Step{{Op{Kind: Rename, A: "/b/sub", B: "/b/empty"}, nil}}) // replaces the empty directory
		nlink("/b", 3)
		run(t, ctx, fs, []Step{{Op{Kind: Rename, A: "/b/empty", B: "/a/sub"}, nil}})
		nlink("/a", 4)
		nlink("/b", 2)
		nlink("/", 4)
		if w, ok := fs.(*winefs.FS); ok {
			if err := w.Audit(ctx); err != nil {
				t.Fatal(err)
			}
			if rep := winefs.Check(w.Device()); !rep.OK() {
				t.Fatalf("fsck: %v", rep.Errors)
			}
			// Repair of media no fault touched has nothing to fix.
			img := w.Device().Snapshot()
			if rep, err := winefs.Repair(img); err != nil || rep.NlinksFixed != 0 || !rep.Clean {
				t.Fatalf("repair of a sound image: %+v, %v", rep, err)
			}
		}
		run(t, ctx, fs, []Step{
			{Op{Kind: Rmdir, A: "/a/sub"}, nil},
			{Op{Kind: Rmdir, A: "/b"}, nil},
			{Op{Kind: Rmdir, A: "/a/b"}, nil},
			{Op{Kind: Unlink, A: "/a/c2"}, nil},
			{Op{Kind: Rmdir, A: "/a"}, nil},
		})
		ents, _ := fs.ReadDir(ctx, "/")
		if len(ents) != 0 {
			t.Fatalf("root not empty: %v", ents)
		}
	})
}

func TestConformanceErrors(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		run(t, ctx, fs, []Step{
			{Op{Kind: Unlink, A: "/nope"}, vfs.ErrNotExist},
			{Op{Kind: Mkdir, A: "/d"}, nil},
			{Op{Kind: Unlink, A: "/d"}, vfs.ErrIsDir},
			{Op{Kind: Create, A: "/f"}, nil},
			{Op{Kind: Rmdir, A: "/f"}, vfs.ErrNotDir},
			{Op{Kind: Create, A: "/f/x"}, vfs.ErrNotDir},
		})
		if _, err := fs.Open(ctx, "/nope"); err != vfs.ErrNotExist {
			t.Fatalf("open missing: %v", err)
		}
		if _, err := fs.Open(ctx, "/d"); err != vfs.ErrIsDir {
			t.Fatalf("open dir: %v", err)
		}
	})
}

func TestConformanceSpaceAccounting(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		st0 := fs.StatFS(ctx)
		if st0.FreeBlocks <= 0 || st0.TotalBlocks <= 0 {
			t.Fatalf("bad statfs: %+v", st0)
		}
		run(t, ctx, fs, []Step{{Op{Kind: Create, A: "/big"}, nil}, {Op{Kind: Write, A: "/big", Data: make([]byte, 16<<20)}, nil}})
		st1 := fs.StatFS(ctx)
		if st0.FreeBlocks-st1.FreeBlocks < (16<<20)/alloc.BlockSize {
			t.Fatalf("allocation unaccounted: %d -> %d", st0.FreeBlocks, st1.FreeBlocks)
		}
		run(t, ctx, fs, []Step{{Op{Kind: Unlink, A: "/big"}, nil}})
		st2 := fs.StatFS(ctx)
		if st2.FreeBlocks < st1.FreeBlocks {
			t.Fatal("unlink did not release space")
		}
	})
}

func TestConformanceMmapRoundTrip(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		f, _ := fs.Create(ctx, "/m")
		if err := f.Fallocate(ctx, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
		m, err := f.Mmap(ctx, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("mapped payload")
		if err := m.Write(ctx, data, 123456); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := m.Read(ctx, got, 123456); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("mmap round trip failed")
		}
		// Visible through the syscall path too.
		got2 := make([]byte, len(data))
		if _, err := f.ReadAt(ctx, got2, 123456); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, data) {
			t.Fatal("mmap write invisible to read()")
		}
	})
}

// TestConformanceMmapShootdown maps a file through each entry point, reads
// it, takes its blocks away (truncate to 0, or unlink), and writes another
// pattern into a new file so the freed blocks can be reused. A read through
// the old mapping must then fail with vfs.ErrMapFault: both entry points
// attach through vfs.Mapper, so truncate and unlink shoot the mapping down,
// and no stale translation can return the new file's bytes.
func TestConformanceMmapShootdown(t *testing.T) {
	type reader interface {
		Read(ctx *sim.Ctx, p []byte, off int64) error
	}
	entries := []struct {
		name string
		mmap func(ctx *sim.Ctx, f vfs.File, n int64) (reader, error)
	}{
		{"vmm.Map", func(ctx *sim.Ctx, f vfs.File, n int64) (reader, error) {
			return vmm.Map(ctx, f, n, vmm.Config{})
		}},
		{"File.Mmap", func(ctx *sim.Ctx, f vfs.File, n int64) (reader, error) {
			return f.Mmap(ctx, n)
		}},
	}
	removals := []Op{{Kind: Truncate}, {Kind: Unlink}}
	const size = 2 << 20
	oldData := bytes.Repeat([]byte{0xAA}, size)
	newData := bytes.Repeat([]byte{0xBB}, size)
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		for _, e := range entries {
			for _, r := range removals {
				t.Run(e.name+"/"+kindNames[r.Kind], func(t *testing.T) {
					path := "/old-" + kindNames[r.Kind] + "-" + e.name
					f, err := fs.Create(ctx, path)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteAt(ctx, oldData, 0); err != nil {
						t.Fatal(err)
					}
					m, err := e.mmap(ctx, f, size)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]byte, size)
					if err := m.Read(ctx, got, 0); err != nil || !bytes.Equal(got, oldData) {
						t.Fatalf("read through the fresh mapping: err %v, data matches %v", err, bytes.Equal(got, oldData))
					}
					r.A = path
					newPath := "/new-" + kindNames[r.Kind] + "-" + e.name
					run(t, ctx, fs, []Step{{r, nil}, {Op{Kind: Create, A: newPath}, nil}, {Op{Kind: Write, A: newPath, Data: newData}, nil}})
					for _, off := range []int64{0, size / 2, size - 4096} {
						buf := make([]byte, 4096)
						err := m.Read(ctx, buf, off)
						if bytes.Contains(buf, newData[:64]) {
							t.Fatalf("read at %d through the old mapping returned the new file's bytes (err %v)", off, err)
						}
						if !errors.Is(err, vfs.ErrMapFault) {
							t.Fatalf("read at %d through the old mapping: err %v, want vfs.ErrMapFault", off, err)
						}
					}
					f.Close(ctx)
				})
			}
		}
	})
}

// TestMmapExtentsTwoReaders has two goroutines read a file's extent list
// while a mapping faults its pages in — on ext4-DAX every fault splits an
// unwritten extent. Extents is a reader: under the race detector nothing it
// does may conflict with the other reader or with the faults.
func TestMmapExtentsTwoReaders(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		f, _ := fs.Create(ctx, "/m")
		const size = 1 << 20
		if err := f.Fallocate(ctx, alloc.BlockSize, size); err != nil {
			t.Fatal(err)
		}
		m, err := f.Mmap(ctx, alloc.BlockSize+size)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					exts := f.Extents()
					for k := 1; k < len(exts); k++ {
						if exts[k-1].FileOff+exts[k-1].Len > exts[k].FileOff {
							errs <- fmt.Errorf("extents %d and %d out of order: %+v", k-1, k, exts)
							return
						}
					}
				}
			}()
		}
		for off := int64(alloc.BlockSize); off < alloc.BlockSize+size; off += 2 * alloc.BlockSize {
			if err := m.Write(ctx, []byte{1}, off); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func TestConformanceTruncate(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		run(t, ctx, fs, []Step{
			{Op{Kind: Create, A: "/t"}, nil},
			{Op{Kind: Write, A: "/t", Data: bytes.Repeat([]byte{1}, 64<<10)}, nil},
			{Op{Kind: Truncate, A: "/t", Size: 1000}, nil},
		})
		if fi, err := fs.Stat(ctx, "/t"); err != nil || fi.Size != 1000 {
			t.Fatalf("size %d, %v", fi.Size, err)
		}
		run(t, ctx, fs, []Step{{Op{Kind: Truncate, A: "/t", Size: 1 << 20}, nil}})
		if got := contents(t, ctx, fs, "/t"); !bytes.Equal(got[1000:], make([]byte, 1<<20-1000)) {
			t.Fatal("grown region not zero")
		}
	})
}

func TestConformanceVirtualTimeAdvances(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		t0 := ctx.Now()
		f, _ := fs.Create(ctx, "/x")
		f.WriteAt(ctx, make([]byte, 4096), 0)
		f.Fsync(ctx)
		if ctx.Now() <= t0 {
			t.Fatal("operations consumed no virtual time")
		}
		if ctx.Counters.Syscalls < 3 {
			t.Fatalf("syscalls = %d", ctx.Counters.Syscalls)
		}
	})
}

// TestHugepageBehaviourDiffers verifies the paper's clean-FS hugepage
// landscape: WineFS, ext4-DAX and NOVA can map a fresh large file with
// hugepages; xfs-DAX and PMFS cannot even when clean (footnote 1).
func TestHugepageBehaviourDiffers(t *testing.T) {
	expectHuge := map[string]bool{
		"WineFS": true, "WineFS-relaxed": true, "ext4-DAX": true,
		"NOVA": true, "NOVA-relaxed": true, "SplitFS": true,
		"xfs-DAX": false, "PMFS": false, "Strata": false,
	}
	for _, m := range All(4) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(256 << 20)
			fs, err := m.Make(ctx, dev)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := fs.Create(ctx, "/big")
			if err := f.Fallocate(ctx, 0, 8<<20); err != nil {
				t.Fatal(err)
			}
			mp, err := f.Mmap(ctx, 8<<20)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Reset()
			if err := mp.Touch(ctx, 0, 8<<20, true); err != nil {
				t.Fatal(err)
			}
			gotHuge := ctx.Counters.HugeFaults > 0 && ctx.Counters.PageFaults == 0
			if gotHuge != expectHuge[m.Name] {
				t.Fatalf("huge=%v (hugeFaults=%d baseFaults=%d), expected huge=%v",
					gotHuge, ctx.Counters.HugeFaults, ctx.Counters.PageFaults, expectHuge[m.Name])
			}
		})
	}
}

// churn is TestChurnConsistency's sequence for seed, 300 rows: a create
// and a write of random bytes to a new file, or an unlink of a live file
// the rng picks. It also returns the write of each file left live.
func churn(seed uint64) (ops, live []Op) {
	rng := sim.NewRand(seed)
	for i := 0; i < 300; i++ {
		if len(live) < 5 || rng.Intn(3) > 0 {
			data := make([]byte, 1+rng.Intn(100<<10))
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			w := Op{Kind: Write, A: fmt.Sprintf("/c%d", i), Data: data}
			ops, live = append(ops, Op{Kind: Create, A: w.A}, w), append(live, w)
			continue
		}
		k := rng.Intn(len(live))
		ops, live = append(ops, Op{Kind: Unlink, A: live[k].A}), slices.Delete(live, k, k+1)
	}
	return ops, live
}

// TestChurnConsistency drives create/write/delete churn and verifies
// content integrity on every FS. A seed is one sequence, so a failure
// replays.
func TestChurnConsistency(t *testing.T) {
	names := func(ops []Op) (s []string) {
		for _, o := range ops {
			s = append(s, o.String())
		}
		return s
	}
	ops, live := churn(7)
	if again, _ := churn(7); !slices.Equal(names(ops), names(again)) {
		t.Fatalf("seed 7 ran two sequences:\n%v\n%v", names(ops), names(again))
	}
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		for _, o := range ops {
			if err := Apply(ctx, fs, o); err != nil {
				t.Fatalf("%s: %v", o, err)
			}
		}
		for _, w := range live {
			if !bytes.Equal(contents(t, ctx, fs, w.A), w.Data) {
				t.Fatalf("%s content mismatch", w.A)
			}
		}
	})
}

// TestConformanceTruncateGrowZeroes is the regression for a bug the
// extent-map property test found: shrink-truncate to a mid-block offset,
// then write far past EOF — the bytes between the two must read as zero,
// not as the stale tail of the last kept block.
func TestConformanceTruncateGrowZeroes(t *testing.T) {
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		run(t, ctx, fs, []Step{
			{Op{Kind: Create, A: "/t"}, nil},
			{Op{Kind: Write, A: "/t", Off: 394252, Data: bytes.Repeat([]byte{0xAB}, 22914)}, nil},
			{Op{Kind: Truncate, A: "/t", Size: 409482}, nil},
			{Op{Kind: Write, A: "/t", Off: 900000, Data: bytes.Repeat([]byte{0xCD}, 1000)}, nil},
		})
		got := contents(t, ctx, fs, "/t")
		for i := 409482; i < 900000; i++ {
			if got[i] != 0 {
				t.Fatalf("stale byte %x at EOF+%d after truncate+grow", got[i], i-409482)
			}
		}
	})
}
