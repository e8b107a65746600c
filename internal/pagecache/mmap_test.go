package pagecache_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/mmu"
	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

// mapFS adapts a local WineFS into a Leasable backing store whose files
// also forward the vfs.Mapper surface, so a cached handle above it can be
// memory-mapped. Unleases are counted to observe the bypass.
type mapFS struct {
	vfs.FS
	unleases atomic.Int64
}

func newMapFS(t *testing.T) *mapFS {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: 2, Mode: vfs.Strict})
	if err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	return &mapFS{FS: fs}
}

func (l *mapFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &mapFile{File: f, fs: l, mp: f.(vfs.Mapper)}, nil
}

func (l *mapFS) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	return l.wrap(l.FS.Create(ctx, path))
}

func (l *mapFS) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	return l.wrap(l.FS.Open(ctx, path))
}

type mapFile struct {
	vfs.File
	fs *mapFS
	mp vfs.Mapper
}

func (f *mapFile) Lease(ctx *sim.Ctx, write bool) (bool, error) { return true, nil }

func (f *mapFile) Unlease(ctx *sim.Ctx) error {
	f.fs.unleases.Add(1)
	return nil
}

func (f *mapFile) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	return f.mp.Fault(ctx, pageOff)
}
func (f *mapFile) MapSpace() *mmu.AddressSpace  { return f.mp.MapSpace() }
func (f *mapFile) MapSyscallNS() int64          { return f.mp.MapSyscallNS() }
func (f *mapFile) AttachMapping(m *mmu.Mapping) { f.mp.AttachMapping(m) }
func (f *mapFile) DetachMapping(m *mmu.Mapping) { f.mp.DetachMapping(m) }
func (f *mapFile) MsyncRange(ctx *sim.Ctx, off, n int64) error {
	return f.mp.MsyncRange(ctx, off, n)
}

var _ pagecache.Leasable = (*mapFile)(nil)
var _ vfs.Mapper = (*mapFile)(nil)

// TestMmapBypassesLease is the coherence regression test for shared
// mappings over the lease-coherent client cache, through both entry
// points: attaching a mapping must flush the cached dirty pages, drop the
// rest, release the lease and pin the ino in pass-through — afterwards
// stores through the mapping and reads through any cached handle see one
// store order, not two.
func TestMmapBypassesLease(t *testing.T) {
	type mapping interface {
		Read(ctx *sim.Ctx, p []byte, off int64) error
		Write(ctx *sim.Ctx, p []byte, off int64) error
	}
	for _, tc := range []struct {
		name string
		mmap func(t *testing.T, ctx *sim.Ctx, f vfs.File, n int64) (mapping, error)
	}{
		{"vmm.Map", func(t *testing.T, ctx *sim.Ctx, f vfs.File, n int64) (mapping, error) {
			m, err := vmm.Map(ctx, f, n, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
			if err == nil {
				t.Cleanup(func() { m.Close(ctx) })
			}
			return m, err
		}},
		{"File.Mmap", func(t *testing.T, ctx *sim.Ctx, f vfs.File, n int64) (mapping, error) {
			return f.Mmap(ctx, n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lfs := newMapFS(t)
			c := pagecache.New(lfs, pagecache.Config{})
			ctx := sim.NewCtx(100, 0)

			f, err := c.Create(ctx, "/m")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			// Dirty data that exists only in the cache until the map attaches.
			want := make([]byte, 4*pagecache.PageSize)
			pattern(want, 3)
			if _, err := f.Append(ctx, want); err != nil {
				t.Fatalf("append: %v", err)
			}

			m, err := tc.mmap(t, ctx, f, int64(len(want)))
			if err != nil {
				t.Fatalf("map: %v", err)
			}

			if got := stats(t, c).MapBypasses; got < 1 {
				t.Fatalf("MapBypasses = %d, want >= 1", got)
			}
			if got := lfs.unleases.Load(); got < 1 {
				t.Fatalf("unleases = %d, want >= 1 (lease must be released on map attach)", got)
			}

			// The mapping reads the bytes that were dirty in the cache: the
			// attach flushed them to the backing store.
			got := make([]byte, len(want))
			if err := m.Read(ctx, got, 0); err != nil {
				t.Fatalf("mapped read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("mapped read diverges from data written through the cache before mapping")
			}

			// A store through the mapping is immediately visible to the cached
			// handle (pass-through, no stale cached page).
			upd := make([]byte, pagecache.PageSize)
			pattern(upd, 9)
			if err := m.Write(ctx, upd, pagecache.PageSize); err != nil {
				t.Fatalf("mapped write: %v", err)
			}
			rd := make([]byte, pagecache.PageSize)
			if _, err := f.ReadAt(ctx, rd, pagecache.PageSize); err != nil {
				t.Fatalf("cached read: %v", err)
			}
			if !bytes.Equal(rd, upd) {
				t.Fatal("cached handle read stale bytes after a store through the mapping")
			}

			// A write through the handle is visible to the mapping too.
			pattern(upd, 21)
			if _, err := f.WriteAt(ctx, upd, 2*pagecache.PageSize); err != nil {
				t.Fatalf("handle write: %v", err)
			}
			if err := m.Read(ctx, rd, 2*pagecache.PageSize); err != nil {
				t.Fatalf("mapped read: %v", err)
			}
			if !bytes.Equal(rd, upd) {
				t.Fatal("mapping read stale bytes after a write through the cached handle")
			}

			// While the ino is mapped, fresh opens are uncached pass-through: a
			// read through a second handle costs backing-store reads, not hits.
			g, err := c.Open(ctx, "/m")
			if err != nil {
				t.Fatalf("open while mapped: %v", err)
			}
			hitsBefore := stats(t, c).Hits
			if _, err := g.ReadAt(ctx, rd, 0); err != nil {
				t.Fatalf("second handle read: %v", err)
			}
			if _, err := g.ReadAt(ctx, rd, 0); err != nil {
				t.Fatalf("second handle reread: %v", err)
			}
			if hits := stats(t, c).Hits; hits != hitsBefore {
				t.Fatalf("cache hits grew %d -> %d for a mapped ino, want pass-through", hitsBefore, hits)
			}
			g.Close(ctx)
		})
	}
}
