package vfs_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// TestState: vfs.State over a WineFS mount is canonical, changes with every
// kind of change an application can see — an unlink, a one-byte write, a
// rename — tells a page lost to a hole from the bytes written there, and
// records a file the media will not return as EIO instead of failing.
func TestState(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir(ctx, "/d"))
	f, err := fs.Create(ctx, "/d/f")
	must(err)
	_, err = f.Append(ctx, make([]byte, 123))
	must(err)
	s := vfs.State(ctx, fs)
	if again := vfs.State(ctx, fs); again != s {
		t.Fatalf("two States of one mount differ:\n%s\n%s", s, again)
	}
	want := fmt.Sprintf("/d/f file size=123 nlink=1 sha256=%x", sha256.Sum256(make([]byte, 123)))
	if lines := strings.Split(s, "\n"); len(lines) != 3 || !strings.HasPrefix(lines[0], "/ dir ") || !strings.HasPrefix(lines[1], "/d dir ") || lines[2] != want {
		t.Fatalf("State =\n%s\nwant the root, /d and %q", s, want)
	}

	changes := func(what string, op func() error) {
		t.Helper()
		before := vfs.State(ctx, fs)
		must(op())
		if vfs.State(ctx, fs) == before {
			t.Fatalf("State did not change on %s", what)
		}
	}
	changes("a one-byte write", func() error { _, err := f.WriteAt(ctx, []byte{1}, 5); return err })
	changes("a rename", func() error { return fs.Rename(ctx, "/d/f", "/d/g") })
	changes("an unlink", func() error { return fs.Unlink(ctx, "/d/g") })

	// A page written into a hole, and the hole it would read as were it lost.
	h, err := fs.Create(ctx, "/h")
	must(err)
	must(h.Truncate(ctx, 2*winefs.BlockSize))
	changes("a page written into a hole", func() error {
		_, err := h.WriteAt(ctx, bytes.Repeat([]byte{0xA5}, winefs.BlockSize), 0)
		return err
	})

	// Poison under the page: State records EIO, and only for /h.
	ext := h.Extents()
	if len(ext) == 0 {
		t.Fatal("/h has no extents after a write")
	}
	dev.Poison(ext[0].Phys, 1)
	poisoned := vfs.State(ctx, fs)
	if !strings.Contains(poisoned, "/h file size=8192 nlink=1 sha256=EIO") || strings.Count(poisoned, "EIO") != 1 || strings.Contains(poisoned, " ERR ") {
		t.Fatalf("State of a mount with /h poisoned =\n%s", poisoned)
	}
}

// stubFS serves a root holding files of the sizes Stat claims, whose
// bytes are data and whose reads past it fail with io.EOF; any other
// call panics.
type stubFS struct {
	vfs.FS
	files map[string]stubFile
}

type stubFile struct {
	vfs.File
	claim int64
	data  []byte
}

func (s stubFS) ReadDir(_ *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	for name := range s.files {
		ents = append(ents, vfs.DirEntry{Name: name[1:]})
	}
	return ents, nil
}

func (s stubFS) Stat(_ *sim.Ctx, path string) (vfs.FileInfo, error) {
	if path == "/" {
		return vfs.FileInfo{IsDir: true, Nlink: 2}, nil
	}
	return vfs.FileInfo{Size: s.files[path].claim, Nlink: 1}, nil
}

func (s stubFS) Open(_ *sim.Ctx, path string) (vfs.File, error) { return s.files[path], nil }

func (f stubFile) ReadAt(_ *sim.Ctx, p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(f.data)) {
		return copy(p, f.data[min(off, int64(len(f.data))):]), io.EOF
	}
	return copy(p, f.data[off:]), nil
}

func (stubFile) Close(*sim.Ctx) error { return nil }

// TestStateBoundsTheRead: a file whose size field claims 1<<50 bytes
// gets an ERR line from State at the cost of one bounded buffer, not an
// allocation of the claim, and a file of several read chunks hashes as
// its whole bytes.
func TestStateBoundsTheRead(t *testing.T) {
	data := make([]byte, 3<<20+5)
	for i := range data {
		data[i] = byte(i * 7)
	}
	fs := stubFS{files: map[string]stubFile{
		"/big":  {claim: 1 << 50, data: make([]byte, 4096)},
		"/many": {claim: int64(len(data)), data: data},
	}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := vfs.State(sim.NewCtx(1, 0), fs)
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf("/ dir size=0 nlink=2\n/big ERR EOF\n/many file size=%d nlink=1 sha256=%x", len(data), sha256.Sum256(data))
	if s != want {
		t.Errorf("State =\n%s\nwant\n%s", s, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("State allocated %d bytes for a file claiming 1<<50 and one of %d", got, len(data))
	}
}
