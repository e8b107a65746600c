package winefs

import (
	"fmt"
	"testing"

	"repro/internal/ext4dax"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// Faults used to be resolved from a copy of the file's whole extent list:
// the file system built the list in mmu form (leaving slow-tier extents
// out), mmu.HugeEligible scanned it for the extent covering the chunk and
// mmu.PhysAt scanned it again for the page. Now the file system's own index
// finds the one extent covering the page by binary search (mapAt). The old
// list-based resolution is kept here as the oracle.

// refExtents is the list the old fault path built: every PM extent in file
// order, in mmu form.
func refExtents(ino *inode) []mmu.Extent {
	var out []mmu.Extent
	for _, e := range ino.extents {
		if ino.fs.isSlow(e.blk) {
			continue
		}
		out = append(out, mmu.Extent{FileOff: e.fileBlk * BlockSize, Phys: e.blk * BlockSize, Len: e.length * BlockSize})
	}
	return out
}

// refHuge is the old list-scanning mmu.HugeEligible.
func refHuge(exts []mmu.Extent, chunkOff int64) (int64, bool) {
	for _, e := range exts {
		if chunkOff >= e.FileOff && chunkOff < e.FileOff+e.Len {
			phys := e.Phys + (chunkOff - e.FileOff)
			if phys%mmu.HugePage != 0 || e.FileOff+e.Len < chunkOff+mmu.HugePage {
				return 0, false
			}
			return phys, true
		}
	}
	return 0, false
}

// refFault is the old fault answer for the page at pageOff: the chunk as a
// hugepage if eligible, else the page through the old mmu.PhysAt scan.
func refFault(exts []mmu.Extent, pageOff int64) (mmu.FaultResult, bool) {
	if phys, ok := refHuge(exts, pageOff/mmu.HugePage*mmu.HugePage); ok {
		return mmu.FaultResult{Huge: true, Phys: phys}, true
	}
	for _, e := range exts {
		if pageOff >= e.FileOff && pageOff < e.FileOff+e.Len {
			return mmu.FaultResult{Phys: e.Phys + (pageOff - e.FileOff)}, true
		}
	}
	return mmu.FaultResult{}, false
}

// TestFaultResolutionMatchesListReference drives one strict, tiered WineFS
// file through 10⁴ seeded appends, copy-on-write overwrites, hole punches,
// truncates, fallocates, faults (demand allocation and promotion from the
// slow tier), tier passes at near-zero water marks and reactive rewrites,
// with a decoy whose appends interleave with the file's. After every step,
// every page's fault answer, every chunk's ProbeHuge and every chunk's
// fragmentedAt equal what the old list-based resolution gives.
func TestFaultResolutionMatchesListReference(t *testing.T) {
	const (
		steps = 10_000
		space = 3 * BlocksPerHuge // file blocks the operations land in
	)
	ctx := sim.NewCtx(1, 0)
	slow := tier.NewSlow(tier.DefaultSlowConfig(64 << 20))
	t.Cleanup(slow.Release)
	fs, err := Mkfs(ctx, pmem.New(128<<20), Options{CPUs: 1, Mode: vfs.Strict, InodesPerCPU: 64, Tier: &TierOptions{Slow: slow}})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	decoy, err := fs.Create(ctx, "/decoy")
	if err != nil {
		t.Fatal(err)
	}
	f := fv.(*File)
	ino := f.ino
	rng := sim.NewRand(20210926)
	buf := make([]byte, 64*BlockSize)
	blocks := func(max int64) int64 { return 1 + rng.Int63n(max) }

	var huge, base, slowPages, demoted int64
	for step := 0; step < steps; step++ {
		size := f.Size()
		var what string
		switch r := rng.Intn(100); {
		case r < 25: // append, the decoy's block in between
			n := min(blocks(32), space-(size+BlockSize-1)/BlockSize)
			if n <= 0 {
				break
			}
			what = fmt.Sprintf("append %d blocks", n)
			if _, err = f.Append(ctx, buf[:n*BlockSize]); err == nil {
				_, err = decoy.Append(ctx, buf[:BlockSize])
			}
		case r < 40: // overwrite: copy-on-write of whatever is not a large extent
			if size == 0 {
				break
			}
			off := rng.Int63n(size)
			n := min(blocks(4)*BlockSize-rng.Int63n(BlockSize), size-off)
			what = fmt.Sprintf("overwrite [%d,+%d)", off, n)
			_, err = f.WriteAt(ctx, buf[:n], off)
		case r < 50:
			off := rng.Int63n(space) * BlockSize
			n := blocks(BlocksPerHuge) * BlockSize
			what = fmt.Sprintf("punch [%d,+%d)", off, n)
			err = f.PunchHole(ctx, off, n)
		case r < 58:
			to := rng.Int63n(space*BlockSize + 1)
			what = fmt.Sprintf("truncate %d", to)
			err = f.Truncate(ctx, to)
		case r < 68:
			off := rng.Int63n(space) * BlockSize
			n := min(blocks(BlocksPerHuge)*BlockSize, space*BlockSize-off)
			what = fmt.Sprintf("fallocate [%d,+%d)", off, n)
			err = f.Fallocate(ctx, off, n)
		case r < 80: // a fault: demand allocation in a hole, promotion of slow data
			if size == 0 {
				break
			}
			off := rng.Int63n((size+BlockSize-1)/BlockSize) * BlockSize
			what = fmt.Sprintf("fault %d", off)
			_, err = f.Fault(ctx, off)
		case r < 88: // demote everything the pass will take
			what = "tier pass"
			fs.SetTierWaterMarks(0.01, 0.005)
			var st TierPassStats
			st, err = fs.TierPass(ctx, TierPassOptions{})
			fs.SetTierWaterMarks(0.90, 0.80)
			demoted += st.DemotedBlocks
		case r < 96:
			what = "rewrite"
			fs.maybeQueueRewrite(ino)
			fs.RunRewriter(ctx)
		default: // the decoy shrinks, leaving holes between the file's extents
			what = "decoy truncate"
			err = decoy.Truncate(ctx, rng.Int63n(decoy.Size()+1))
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}

		ino.mu.RLock()
		exts := refExtents(ino)
		size = ino.size
		for off := int64(0); off < space*BlockSize; off += BlockSize {
			want, wok := refFault(exts, off)
			got, gok := ino.mapAt(off)
			if got != want || gok != wok {
				ino.mu.RUnlock()
				t.Fatalf("step %d (%s): page %d resolves to %+v %v, the list to %+v %v", step, what, off, got, gok, want, wok)
			}
			switch {
			case want.Huge:
				huge++
			case wok:
				base++
			case blkAt(ino, off/BlockSize) >= 0:
				slowPages++
			}
		}
		for lo := int64(0); lo < space; lo += BlocksPerHuge {
			_, eligible := refHuge(exts, lo*BlockSize)
			_, _, backed := ino.findRun(lo)
			want := !eligible && (backed || ino.nextExtentStart(lo, lo+BlocksPerHuge) < lo+BlocksPerHuge)
			if got := ino.fragmentedAt(lo); got != want {
				ino.mu.RUnlock()
				t.Fatalf("step %d (%s): fragmentedAt(%d) = %v, the list says %v", step, what, lo, got, want)
			}
		}
		ino.mu.RUnlock()
		for chunk := int64(0); chunk < space*BlockSize; chunk += mmu.HugePage {
			phys, eligible := refHuge(exts, chunk)
			eligible = eligible && chunk+mmu.HugePage <= size
			var installed int64 = -1
			if got := f.ProbeHuge(chunk, func(p int64) { installed = p }); got != eligible || eligible && installed != phys {
				t.Fatalf("step %d (%s): ProbeHuge(%d) = %v at %d, the list says %v at %d", step, what, chunk, got, installed, eligible, phys)
			}
		}
		// The fault entry point itself, wherever it cannot change the layout.
		for off := int64(0); off < space*BlockSize; off += 7 * BlockSize {
			if want, ok := refFault(exts, off); ok {
				if got, err := f.Fault(ctx, off); err != nil || got != want {
					t.Fatalf("step %d (%s): Fault(%d) = %+v, %v; the list says %+v", step, what, off, got, err, want)
				}
			}
		}
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatal(err)
	}
	if huge == 0 || base == 0 || slowPages == 0 || demoted == 0 {
		t.Fatalf("a kind of page went untested: %d huge, %d base, %d slow page checks; %d blocks demoted", huge, base, slowPages, demoted)
	}
	t.Logf("%d steps: %d huge, %d base, %d slow page checks; %d blocks demoted", steps, huge, base, slowPages, demoted)
}

// TestExt4DAXFaultResolutionMatchesListReference runs the same comparison
// on ext4-DAX, whose fault splits the fallocated (unwritten) extent it
// zeroes: seeded fallocates, writes, truncates and faults, and after every
// step a fault on every backed page, each answered as the list built just
// before the sweep answers it.
func TestExt4DAXFaultResolutionMatchesListReference(t *testing.T) {
	const (
		steps = 1_000
		space = 2 * BlocksPerHuge
	)
	ctx := sim.NewCtx(1, 0)
	f, err := ext4dax.New(pmem.New(64<<20)).Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	h := f.(mmu.FaultHandler)
	rng := sim.NewRand(20210926)
	buf := make([]byte, 16*BlockSize)

	var huge, base, maxExtents int
	for step := 0; step < steps; step++ {
		var what string
		off := rng.Int63n(space) * BlockSize
		switch r := rng.Intn(10); {
		case r < 2: // a whole chunk: the allocator aligns large requests
			off = off / mmu.HugePage * mmu.HugePage
			what = fmt.Sprintf("fallocate chunk %d", off)
			err = f.Fallocate(ctx, off, mmu.HugePage)
		case r < 5:
			n := min((1+rng.Int63n(BlocksPerHuge))*BlockSize, space*BlockSize-off)
			what = fmt.Sprintf("fallocate [%d,+%d)", off, n)
			err = f.Fallocate(ctx, off, n)
		case r < 7:
			n := min(1+rng.Int63n(int64(len(buf))), space*BlockSize-off)
			what = fmt.Sprintf("write [%d,+%d)", off, n)
			_, err = f.WriteAt(ctx, buf[:n], off)
		case r < 8:
			what = fmt.Sprintf("truncate %d", off)
			err = f.Truncate(ctx, off)
		default:
			if off >= f.Size() {
				break
			}
			what = fmt.Sprintf("fault %d", off)
			_, err = h.Fault(ctx, off)
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		exts := f.Extents()
		maxExtents = max(maxExtents, len(exts))
		for off := int64(0); off < space*BlockSize; off += BlockSize {
			want, ok := refFault(exts, off)
			if !ok {
				continue // a hole: the fault would allocate
			}
			got, err := h.Fault(ctx, off)
			if err != nil || got != want {
				t.Fatalf("step %d (%s): Fault(%d) = %+v, %v; the list says %+v", step, what, off, got, err, want)
			}
			if want.Huge {
				huge++
			} else {
				base++
			}
		}
	}
	if huge == 0 || base == 0 || maxExtents < BlocksPerHuge {
		t.Fatalf("%d huge, %d base faults, at most %d extents: the splits went untested", huge, base, maxExtents)
	}
	t.Logf("%d steps: %d huge, %d base faults; at most %d extents", steps, huge, base, maxExtents)
}
