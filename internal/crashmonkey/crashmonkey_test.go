package crashmonkey

import (
	"testing"

	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// bothModes crash-explores every workload on a relaxed and on a strict
// mount: the header write at commit is the same code in both, what leads up
// to it (in-place against copy-on-write) is not.
func bothModes(t *testing.T, workloads []Workload, cfg Config) (states int) {
	for _, mode := range []vfs.ConsistencyMode{vfs.Relaxed, vfs.Strict} {
		for _, w := range workloads {
			w.Mode = mode
			res := Run(w, cfg)
			if !res.OK() {
				t.Errorf("%s, mode %d: %d failures, first: %s", w.Name, mode, len(res.Failures), res.Failures[0])
			}
			states += res.CrashStates
		}
	}
	return states
}

// TestSeq1 runs the full single-op ACE suite. This is the §5.2 experiment:
// "Currently, WineFS passes all the CrashMonkey tests."
func TestSeq1(t *testing.T) {
	if testing.Short() {
		t.Skip("crash exploration")
	}
	total := bothModes(t, GenerateSeq1(), Config{MaxSubsets: 128, Seed: 42})
	if total < 100 {
		t.Fatalf("only %d crash states explored", total)
	}
	t.Logf("seq1: %d crash states, all recovered consistently", total)
}

func TestSeq2(t *testing.T) {
	if testing.Short() {
		t.Skip("crash exploration")
	}
	total := bothModes(t, GenerateSeq2(), Config{MaxSubsets: 64, Seed: 7})
	t.Logf("seq2: %d crash states, all recovered consistently", total)
}

// TestStateSeesData: the oracle can tell a written page from the hole it
// filled, and relaxed mode's exemption covers the written file's bytes and
// nothing else.
func TestStateSeesData(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs, _ := winefs.Mkfs(ctx, pmem.New(64<<20), winefs.Options{CPUs: 2})
	for _, o := range []fstest.Op{{Kind: fstest.Create, A: "/f"}, {Kind: fstest.Create, A: "/g"}, {Kind: fstest.Truncate, A: "/f", Size: 16384}} {
		if err := fstest.Apply(ctx, fs, o); err != nil {
			t.Fatal(err)
		}
	}
	hole := vfs.State(ctx, fs)
	w := fstest.Op{Kind: fstest.Write, A: "/f", Off: 4096, Data: filled(4096)}
	if err := fstest.Apply(ctx, fs, w); err != nil {
		t.Fatal(err)
	}
	written := vfs.State(ctx, fs)
	if written == hole {
		t.Fatal("a write into a hole left the state unchanged")
	}
	if err := fstest.Apply(ctx, fs, fstest.Op{Kind: fstest.MapStore, A: "/f", Off: 8192, Data: filled(pmem.CacheLine)}); err != nil {
		t.Fatal(err)
	}
	stored := vfs.State(ctx, fs)
	if stored == written {
		t.Fatal("a mapped store left the state unchanged")
	}
	if crashAtomic(stored, hole, written, w, vfs.Strict) {
		t.Fatal("strict: a third content passed for before or after")
	}
	if !crashAtomic(stored, hole, written, w, vfs.Relaxed) {
		t.Fatal("relaxed: the written file's bytes were compared")
	}
	if crashAtomic(stored, hole, written, fstest.Op{Kind: fstest.Write, A: "/g", Off: 0, Data: filled(1)}, vfs.Relaxed) {
		t.Fatal("relaxed: a write to /g excused the bytes of /f")
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	// The checker itself must be able to fail: corrupt a dirent to point
	// at a dead inode and expect an error.
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, _ := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2, InodesPerCPU: 512})
	fs.Mkdir(ctx, "/d")
	f, _ := fs.Create(ctx, "/d/f")
	f.Append(ctx, make([]byte, 4096))
	if rep := winefs.Check(dev); !rep.OK() {
		t.Fatalf("clean image flagged: %v", rep.Errors)
	}
	// Find the dirent for "f" on the device and point it at ino 999999.
	blob := make([]byte, dev.Size())
	dev.ReadAt(blob, 0)
	needle := []byte("f")
	corrupted := false
	for off := int64(0); off+64 <= dev.Size() && !corrupted; off += 8 {
		// dirent layout: ino u64 | valid | nameLen=1 | "f"
		if blob[off+8] == 1 && blob[off+9] == 1 && blob[off+10] == needle[0] && blob[off+11] == 0 {
			bad := []byte{0x3F, 0x42, 0x0F, 0, 0, 0, 0, 0} // ino 999999
			dev.WriteAt(bad, off)
			corrupted = true
		}
	}
	if !corrupted {
		t.Skip("could not locate dirent to corrupt")
	}
	if rep := winefs.Check(dev); rep.OK() {
		t.Fatal("fsck missed a dangling dirent")
	}
}
