package winefs

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// relocCase is one caller of relocate put through the crash sweep: setup
// builds the files (path → content, the oracle), move is the traced mover.
type relocCase struct {
	name   string
	tiered bool
	// slowBefore pairs every crash image with the slow tier as it was
	// before the move instead of after it. Slow writes are durable on
	// completion and precede the commit that references them, so the
	// after-state is right for a demotion at every cut; a promotion only
	// reads the slow copy and discards it once its commit is durable, so
	// a cut before that commit must still find the copy.
	slowBefore bool
	setup      func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte
	move       func(t *testing.T, ctx *sim.Ctx, fs *FS)
}

func writeFile(t *testing.T, ctx *sim.Ctx, fs *FS, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
}

// demoteAll pushes every data extent to the slow tier and restores the
// default water marks.
func demoteAll(t *testing.T, ctx *sim.Ctx, fs *FS) TierPassStats {
	t.Helper()
	fs.SetTierMarks(0.01, 0.005, 0)
	st, err := fs.TierPass(ctx, TierPassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DemotedBlocks == 0 {
		t.Fatal("pass demoted nothing")
	}
	fs.SetTierMarks(0.90, 0.80, 0)
	return st
}

var relocCases = []relocCase{
	{
		// The aged endgame in miniature: 1MiB files two to a hugepage
		// chunk, every other one deleted; the pass vacates the live halves.
		name: "defrag migrateOut",
		setup: func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte {
			files := map[string][]byte{}
			for i := 0; i < 8; i++ {
				path := fmt.Sprintf("/f%d", i)
				data := patternBuf(1<<20, byte(i+1))
				writeFile(t, ctx, fs, path, data)
				if i%2 == 1 {
					files[path] = data
				}
			}
			for i := 0; i < 8; i += 2 {
				if err := fs.Unlink(ctx, fmt.Sprintf("/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			return files
		},
		move: func(t *testing.T, ctx *sim.Ctx, fs *FS) {
			st, err := fs.DefragPass(ctx, DefragOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.MigratedBlocks == 0 || st.Recovered2M == 0 {
				t.Fatalf("pass migrated %d blocks, recovered %d chunks; the sweep would be vacuous",
					st.MigratedBlocks, st.Recovered2M)
			}
		},
	},
	{
		// The slow device is not rolled back, which is what makes the
		// journal commit the single decision point: before it the file
		// reads from the intact PM copy, after it from the slow copy.
		name:   "tier demote",
		tiered: true,
		setup: func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte {
			data := patternBuf(2<<20, 0x5a)
			writeFile(t, ctx, fs, "/victim", data)
			return map[string][]byte{"/victim": data}
		},
		move: func(t *testing.T, ctx *sim.Ctx, fs *FS) { demoteAll(t, ctx, fs) },
	},
	{
		name:       "tier fault promote",
		tiered:     true,
		slowBefore: true,
		setup: func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte {
			data := patternBuf(2<<20, 0x33)
			writeFile(t, ctx, fs, "/victim", data)
			demoteAll(t, ctx, fs)
			return map[string][]byte{"/victim": data}
		},
		move: func(t *testing.T, ctx *sim.Ctx, fs *FS) {
			f, err := fs.Open(ctx, "/victim")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.(*File).Fault(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if ctx.Counters.TierFaultPromotions != 1 {
				t.Fatalf("fault promoted %d extents, want 1", ctx.Counters.TierFaultPromotions)
			}
		},
	},
	{
		// Every chunk of /frag is thirty-two extents (fragPair): the rewrite
		// moves each in four relocate calls of eight.
		name: "reactive rewrite",
		setup: func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte {
			return fragPair(t, ctx, fs, 4<<20+64<<10)
		},
		move: func(t *testing.T, ctx *sim.Ctx, fs *FS) {
			f, err := fs.Open(ctx, "/frag")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Mmap(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if n := fs.RunRewriter(ctx); n != 1 {
				t.Fatalf("rewriter rewrote %d files, want 1", n)
			}
		},
	},
	{
		// A whole 2MiB chunk of thirty-two extents onto one hugepage in a
		// single relocate: the swap is one transaction however many extents
		// it displaces.
		name: "relocate a fragmented chunk",
		setup: func(t *testing.T, ctx *sim.Ctx, fs *FS) map[string][]byte {
			return fragPair(t, ctx, fs, 2<<20)
		},
		move: func(t *testing.T, ctx *sim.Ctx, fs *FS) {
			ino := inoOf(t, ctx, fs, "/frag")
			huge, ok := fs.alloc.allocAligned(ctx, 0)
			if !ok {
				t.Fatal("no aligned extent")
			}
			h := ino.lock().Lock(ctx)
			ino.mu.Lock()
			n := len(ino.extents)
			err := fs.relocate(ctx, ino, 0, BlocksPerHuge, []alloc.Extent{{Start: huge, Len: BlocksPerHuge}}, "relocate", &moveScratch{})
			ino.mu.Unlock()
			h.Unlock(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n < 32 {
				t.Fatalf("the chunk was %d extents, want 32", n)
			}
		},
	},
}

// fragPair writes /frag and /decoy, n bytes each, taking turns appending
// 64KiB: neither has a run longer than that, so every 2MiB chunk of /frag
// is thirty-two extents.
func fragPair(t *testing.T, ctx *sim.Ctx, fs *FS, n int64) map[string][]byte {
	t.Helper()
	frag := patternBuf(n, 0x11)
	decoy := patternBuf(n, 0x99)
	ff, err := fs.Create(ctx, "/frag")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Create(ctx, "/decoy")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(frag); off += 64 << 10 {
		if _, err := ff.Append(ctx, frag[off:off+64<<10]); err != nil {
			t.Fatal(err)
		}
		if _, err := fd.Append(ctx, decoy[off:off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{"/frag": frag, "/decoy": decoy}
}

// layoutOf records, for every file block of every oracle file, the
// physical block backing it (-1 when unbacked).
func layoutOf(t *testing.T, ctx *sim.Ctx, fs *FS, files map[string][]byte) map[string][]int64 {
	t.Helper()
	out := map[string][]int64{}
	for path, data := range files {
		ino := inoOf(t, ctx, fs, path)
		ino.mu.RLock()
		phys := make([]int64, (int64(len(data))+BlockSize-1)/BlockSize)
		for b := range phys {
			phys[b] = blkAt(ino, int64(b))
		}
		ino.mu.RUnlock()
		out[path] = phys
	}
	return out
}

// freeAndMapped returns the first block range that is both free in an
// allocator pool and referenced by an inode.
func freeAndMapped(fs *FS) error {
	type span struct {
		alloc.Extent
		free bool
	}
	var used []alloc.Extent
	for _, ino := range fs.snapshotInodes() {
		ino.mu.RLock()
		for _, e := range ino.extents {
			used = append(used, alloc.Extent{Start: e.blk, Len: e.length})
		}
		for _, b := range ino.indirect {
			used = append(used, alloc.Extent{Start: b, Len: 1})
		}
		ino.mu.RUnlock()
	}
	var all []span
	for _, e := range alloc.Merge(used) {
		all = append(all, span{e, false})
	}
	free := fs.alloc.freeExtents()
	if fs.tier != nil {
		free = append(free, fs.tier.pool.FreeExtents()...)
	}
	for _, e := range free {
		all = append(all, span{e, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for i := 1; i < len(all); i++ {
		if a, b := all[i-1], all[i]; a.free != b.free && a.End() > b.Start {
			return fmt.Errorf("blocks [%d,%d) are both free and mapped", b.Start, min(a.End(), b.End()))
		}
	}
	return nil
}

// TestRelocateCrashSweep crashes every caller of relocate at every fence
// epoch of its move, twice: once on the fence (every earlier store
// durable, nothing later) and once torn (each cache line stored in the
// crash epoch persists or not by coin flip). Each recovered mount must
// serve every file byte-for-byte, map every block to either its old or
// its new home — the first cut to the old layout, the last to the new —
// pass Audit and fsck, and hold no block both free and mapped.
func TestRelocateCrashSweep(t *testing.T) {
	for _, tc := range relocCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx := sim.NewCtx(1, 0)
			dev := pmem.New(32 << 20)
			opts := Options{CPUs: 1, InodesPerCPU: 512}
			var slow *tier.SlowDevice
			var slowBlocks int64
			if tc.tiered {
				slow = tier.NewSlow(tier.DefaultSlowConfig(16 << 20))
				defer slow.Release()
				opts.Tier = &TierOptions{Slow: slow}
				slowBlocks = slow.Size() / BlockSize
			}
			fs, err := Mkfs(ctx, dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			files := tc.setup(t, ctx, fs)
			oldLayout := layoutOf(t, ctx, fs, files)

			var slowImg *tier.SlowDevice
			if tc.slowBefore {
				slowImg = slow.Snapshot()
			}
			rec, _ := dev.Record(func() error { tc.move(t, ctx, fs); return nil })
			if len(rec.Stores) == 0 {
				t.Fatal("the move produced no PM stores")
			}
			if tc.tiered && !tc.slowBefore {
				slowImg = slow.Snapshot()
			}
			newLayout := layoutOf(t, ctx, fs, files)

			rng := sim.NewRand(1)
			recoverAt := func(label string, img *pmem.Device) map[string][]int64 {
				dev.Restore(img)
				if slowImg != nil {
					slow.Restore(slowImg)
				}
				rctx := sim.NewCtx(2, 0)
				rfs, err := Mount(rctx, dev, opts)
				if err != nil {
					t.Fatalf("%s: mount: %v", label, err)
				}
				if reason, degraded := rfs.Degraded(); degraded {
					t.Fatalf("%s: degraded: %s", label, reason)
				}
				for path, want := range files {
					f, err := rfs.Open(rctx, path)
					if err != nil {
						t.Fatalf("%s: open %s: %v", label, path, err)
					}
					got := make([]byte, len(want))
					if _, err := f.ReadAt(rctx, got, 0); err != nil {
						t.Fatalf("%s: read %s: %v", label, path, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: %s: content mismatch (silent corruption)", label, path)
					}
				}
				if err := rfs.Audit(rctx); err != nil {
					t.Fatalf("%s: audit: %v", label, err)
				}
				if rep := CheckTiered(dev, slowBlocks); !rep.OK() {
					t.Fatalf("%s: fsck: %v", label, rep.Errors)
				}
				if err := freeAndMapped(rfs); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := layoutOf(t, rctx, rfs, files)
				for path, phys := range got {
					for b, p := range phys {
						if p != oldLayout[path][b] && p != newLayout[path][b] {
							t.Fatalf("%s: %s block %d maps to %d, neither its old home %d nor its new home %d",
								label, path, b, p, oldLayout[path][b], newLayout[path][b])
						}
					}
				}
				return got
			}
			var first, last map[string][]int64
			for cut := 0; cut <= rec.Last()+1; cut++ {
				last = recoverAt(fmt.Sprintf("cut before epoch %d", cut), rec.Cut(cut))
				if cut == 0 {
					first = last
				}
				recoverAt(fmt.Sprintf("torn in epoch %d", cut), rec.Torn(cut, 0.5, rng))
			}
			// The sweep must straddle every commit point of the move.
			if fmt.Sprint(first) != fmt.Sprint(oldLayout) {
				t.Fatal("nothing durable, yet the recovered layout is not the old one")
			}
			if fmt.Sprint(last) != fmt.Sprint(newLayout) {
				t.Fatal("everything durable, yet the recovered layout is not the new one")
			}
		})
	}
}
