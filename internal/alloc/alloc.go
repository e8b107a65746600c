// Package alloc holds the extent types and free-space analysis helpers
// shared by every file system in the reproduction.
//
// All allocators in this repository work in 4KiB blocks. A "hugepage
// extent" is 512 consecutive blocks starting at a 512-block-aligned offset;
// whether a file system preserves such extents as it ages is the paper's
// central question (Figure 3).
package alloc

import "sort"

const (
	// BlockSize is the file-system block size in bytes.
	BlockSize = 4096
	// BlocksPerHuge is the number of blocks in one 2MiB hugepage extent.
	BlocksPerHuge = 512
	// HugeBytes is the hugepage size in bytes.
	HugeBytes = BlockSize * BlocksPerHuge
)

// Extent is a contiguous run of blocks [Start, Start+Len).
type Extent struct {
	Start int64 // block number
	Len   int64 // in blocks
}

// End returns the first block after the extent.
func (e Extent) End() int64 { return e.Start + e.Len }

// Bytes returns the extent length in bytes.
func (e Extent) Bytes() int64 { return e.Len * BlockSize }

// StartByte returns the extent's first byte address.
func (e Extent) StartByte() int64 { return e.Start * BlockSize }

// AlignedRegions counts the 2MiB-aligned, physically contiguous, fully free
// hugepage regions inside the given free extents — the quantity Figure 3
// plots. Extents need not be sorted or disjoint-merged; they must not
// overlap.
func AlignedRegions(free []Extent) int64 {
	if len(free) == 0 {
		return 0
	}
	sorted := make([]Extent, len(free))
	copy(sorted, free)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var count int64
	var curStart, curEnd int64 = -1, -1
	flush := func() {
		if curStart < 0 {
			return
		}
		first := (curStart + BlocksPerHuge - 1) / BlocksPerHuge * BlocksPerHuge
		for b := first; b+BlocksPerHuge <= curEnd; b += BlocksPerHuge {
			count++
		}
	}
	for _, e := range sorted {
		if e.Len <= 0 {
			continue
		}
		if curStart >= 0 && e.Start == curEnd {
			curEnd = e.End()
			continue
		}
		flush()
		curStart, curEnd = e.Start, e.End()
	}
	flush()
	return count
}

// TotalBlocks sums the lengths of the extents.
func TotalBlocks(extents []Extent) int64 {
	var n int64
	for _, e := range extents {
		n += e.Len
	}
	return n
}

// AlignedFreeFraction returns the fraction of free space that lies inside
// aligned+contiguous hugepage regions (0 when no space is free).
func AlignedFreeFraction(free []Extent) float64 {
	total := TotalBlocks(free)
	if total == 0 {
		return 0
	}
	return float64(AlignedRegions(free)*BlocksPerHuge) / float64(total)
}

// Merge coalesces adjacent/overlapping extents and returns a sorted,
// disjoint list.
func Merge(extents []Extent) []Extent {
	if len(extents) == 0 {
		return nil
	}
	s := make([]Extent, 0, len(extents))
	for _, e := range extents {
		if e.Len > 0 {
			s = append(s, e)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:0]
	for _, e := range s {
		if len(out) > 0 && e.Start <= out[len(out)-1].End() {
			last := &out[len(out)-1]
			if e.End() > last.End() {
				last.Len = e.End() - last.Start
			}
			continue
		}
		out = append(out, e)
	}
	return out
}
