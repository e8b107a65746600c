package mmu

import (
	"testing"
)

// buildExtents turns fuzz bytes into a well-formed extent list: sorted by
// file offset, non-overlapping, block-granular — the shape every file
// system's extent index has when it finds the extent HugeEligible is given.
func buildExtents(data []byte) []Extent {
	var exts []Extent
	fileOff := int64(0)
	phys := int64(0)
	for i := 0; i+3 <= len(data) && len(exts) < 64; i += 3 {
		gap := int64(data[i]%8) * BasePage
		physGap := int64(data[i+1]%16) * BasePage
		length := (int64(data[i+2]%200) + 1) * BasePage
		fileOff += gap
		phys += physGap
		exts = append(exts, Extent{FileOff: fileOff, Phys: phys, Len: length})
		fileOff += length
		phys += length
	}
	return exts
}

// FuzzHugeEligible checks the eligibility predicate against its spec: a
// chunk reported eligible must be backed by one physically contiguous,
// 2MiB-aligned run (every page's covering extent agrees with the chunk
// phys), and a chunk backed by such a run must be reported eligible — the
// predicate can neither hand out a hugepage that would expose wrong
// physical memory nor refuse one the extent layout permits. Resolve, fed
// the extent covering any one page of the chunk, must give the same
// answer: that is what lets a fault decide from one lookup.
func FuzzHugeEligible(f *testing.F) {
	f.Add([]byte{0, 0, 199, 0, 0, 50}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(1))
	f.Add([]byte{0, 0, 255, 0, 0, 255, 0, 0, 255}, uint16(2))
	f.Add([]byte{3, 1, 100}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, chunkSel uint16) {
		exts := buildExtents(data)
		chunkOff := int64(chunkSel%1024) * HugePage

		first, _ := covering(exts, chunkOff)
		phys, ok := HugeEligible(first, chunkOff)
		for k := int64(0); k < PagesPerHuge; k++ {
			off := chunkOff + k*BasePage
			e, found := covering(exts, off)
			if !found {
				if ok {
					t.Fatalf("eligible chunk at %d: no backing for page %d", chunkOff, off)
				}
				continue
			}
			if ok && e.Phys+(off-e.FileOff) != phys+k*BasePage {
				t.Fatalf("eligible chunk at %d: page %d at phys %d, want contiguous %d",
					chunkOff, off, e.Phys+(off-e.FileOff), phys+k*BasePage)
			}
			if r := Resolve(e, off); r.Huge != ok || ok && r.Phys != phys {
				t.Fatalf("page %d: Resolve = %+v, chunk eligibility %v at %d", off, r, ok, phys)
			}
		}
		if ok {
			if phys%HugePage != 0 {
				t.Fatalf("eligible chunk at %d has misaligned phys %d", chunkOff, phys)
			}
			return
		}
		// Completeness: if one extent covers the whole chunk with an
		// aligned physical base, refusing it is a bug.
		for _, e := range exts {
			if chunkOff >= e.FileOff && chunkOff+HugePage <= e.FileOff+e.Len {
				if p := e.Phys + (chunkOff - e.FileOff); p%HugePage == 0 {
					t.Fatalf("chunk at %d fully inside extent %+v with aligned phys %d but not eligible",
						chunkOff, e, p)
				}
			}
		}
	})
}
