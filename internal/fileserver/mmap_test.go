package fileserver

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// TestServerMapRevokesClientLease covers the mmap/lease coherence rule on
// the server side, through both entry points: a server-local process
// mapping a file must revoke the client's lease (flushing its buffered
// writes) at attach time, and while the mapping lives the server refuses
// new leases on that ino, so every client access is pass-through and sees
// the mapping's stores. A File.Mmap mapping has no munmap, so only the
// vmm.Map row tears down.
func TestServerMapRevokesClientLease(t *testing.T) {
	type mapped struct {
		m interface {
			Read(ctx *sim.Ctx, p []byte, off int64) error
			Write(ctx *sim.Ctx, p []byte, off int64) error
		}
		// msync and munmap are nil for a File.Mmap mapping.
		msync, munmap func(ctx *sim.Ctx) error
	}
	for _, tc := range []struct {
		name string
		mmap func(ctx *sim.Ctx, f vfs.File, n int64) (mapped, error)
	}{
		{"vmm.Map", func(ctx *sim.Ctx, f vfs.File, n int64) (mapped, error) {
			v, err := vmm.Map(ctx, f, n, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
			if err != nil {
				return mapped{}, err
			}
			msync := func(ctx *sim.Ctx) error { return v.Msync(ctx, 0, -1) }
			return mapped{m: v, msync: msync, munmap: v.Close}, nil
		}},
		{"File.Mmap", func(ctx *sim.Ctx, f vfs.File, n int64) (mapped, error) {
			m, err := f.Mmap(ctx, n)
			return mapped{m: m}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, pl, fs := newServerFS(t, pmem.New(256<<20), Config{})

			clA := dialT(t, pl)
			cacheA := pagecache.New(clA, pagecache.Config{})
			ctxA := sim.NewCtx(300, 0)

			const size = 2 * pagecache.PageSize
			gen0 := make([]byte, size)
			gen1 := make([]byte, size)
			leasePattern(gen0, 0)
			leasePattern(gen1, 1)

			fA, err := cacheA.Create(ctxA, "/shared")
			if err != nil {
				t.Fatalf("A create: %v", err)
			}
			if _, err := fA.Append(ctxA, gen0); err != nil {
				t.Fatalf("A append: %v", err)
			}
			if _, err := fA.WriteAt(ctxA, gen1, 0); err != nil {
				t.Fatalf("A rewrite: %v", err)
			}
			if st := cacheStats(t, cacheA); st.DirtyPages != 2 {
				t.Fatalf("A DirtyPages = %d, want 2 buffered pages", st.DirtyPages)
			}

			// A server-local process maps the file. The attach hook must
			// revoke A's write lease and wait out the flush before the map
			// completes.
			sctx := sim.NewCtx(310, 1)
			srvFile, err := fs.Open(sctx, "/shared")
			if err != nil {
				t.Fatalf("server open: %v", err)
			}
			mp, err := tc.mmap(sctx, srvFile, size)
			if err != nil {
				t.Fatalf("server map: %v", err)
			}
			m := mp.m
			if st := cacheStats(t, cacheA); st.Revokes != 1 || st.DirtyPages != 0 {
				t.Fatalf("after map attach: A stats %+v, want 1 revoke and 0 dirty", st)
			}
			got := make([]byte, size)
			if err := m.Read(sctx, got, 0); err != nil {
				t.Fatalf("mapped read: %v", err)
			}
			if !bytes.Equal(got, gen1) {
				if bytes.Equal(got, gen0) {
					t.Fatal("mapping read STALE gen0: client's buffered write was lost")
				}
				t.Fatal("mapping read a mix of generations")
			}
			if err := srv.CheckLeaseInvariant(); err != nil {
				t.Fatalf("invariant after map revoke: %v", err)
			}
			if n := fs.MappedCount(srvFile.Ino()); n != 1 {
				t.Fatalf("MappedCount = %d, want 1", n)
			}

			// While mapped, a fresh client open cannot lease: its reads are
			// pass-through and observe the mapping's stores immediately.
			clB := dialT(t, pl)
			cacheB := pagecache.New(clB, pagecache.Config{})
			ctxB := sim.NewCtx(320, 2)
			fB, err := cacheB.Open(ctxB, "/shared")
			if err != nil {
				t.Fatalf("B open: %v", err)
			}
			gen2 := make([]byte, pagecache.PageSize)
			leasePattern(gen2, 2)
			if err := m.Write(sctx, gen2, 0); err != nil {
				t.Fatalf("mapped write: %v", err)
			}
			if mp.msync != nil {
				if err := mp.msync(sctx); err != nil {
					t.Fatalf("msync: %v", err)
				}
			}
			rd := make([]byte, pagecache.PageSize)
			if _, err := fB.ReadAt(ctxB, rd, 0); err != nil {
				t.Fatalf("B read: %v", err)
			}
			if !bytes.Equal(rd, gen2) {
				t.Fatal("B read stale bytes while the ino was mapped (a lease was granted over a live mapping)")
			}
			if hits := cacheStats(t, cacheB).Hits; hits != 0 {
				t.Fatalf("B cache hits = %d while ino mapped, want pure pass-through", hits)
			}
			defer fB.Close(ctxB)
			if mp.munmap == nil {
				return
			}

			// Teardown: the last detach unpins the ino and leases work again.
			if err := mp.munmap(sctx); err != nil {
				t.Fatalf("unmap: %v", err)
			}
			if n := fs.MappedCount(srvFile.Ino()); n != 0 {
				t.Fatalf("MappedCount after unmap = %d, want 0", n)
			}
			fC, err := cacheB.Open(ctxB, "/shared")
			if err != nil {
				t.Fatalf("open after unmap: %v", err)
			}
			if _, err := fC.ReadAt(ctxB, rd, 0); err != nil {
				t.Fatalf("read after unmap: %v", err)
			}
			if _, err := fC.ReadAt(ctxB, rd, 0); err != nil {
				t.Fatalf("reread after unmap: %v", err)
			}
			if hits := cacheStats(t, cacheB).Hits; hits == 0 {
				t.Fatal("no cache hits after unmap: lease still refused?")
			}
			fC.Close(ctxB)
		})
	}
}

// TestRemoteMapNotSupported: a remote mount cannot be memory-mapped —
// vmm.Map reports the typed not-supported error both on a raw client
// handle and through the client page cache.
func TestRemoteMapNotSupported(t *testing.T) {
	_, pl, _ := newServerFS(t, pmem.New(128<<20), Config{})
	cl := dialT(t, pl)
	ctx := sim.NewCtx(400, 0)

	f, err := cl.Create(ctx, "/r")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Append(ctx, make([]byte, 4096)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := vmm.Map(ctx, f, 4096, vmm.Config{}); !errors.Is(err, vfs.ErrNotSupported) {
		t.Fatalf("map of remote file: err = %v, want ErrNotSupported", err)
	}

	c := pagecache.New(cl, pagecache.Config{})
	cf, err := c.Open(ctx, "/r")
	if err != nil {
		t.Fatalf("cached open: %v", err)
	}
	if _, err := vmm.Map(ctx, cf, 4096, vmm.Config{}); !errors.Is(err, vfs.ErrNotSupported) {
		t.Fatalf("map of cached remote file: err = %v, want ErrNotSupported", err)
	}
}
