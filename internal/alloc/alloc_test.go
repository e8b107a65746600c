package alloc

import (
	"testing"
	"testing/quick"
)

func TestExtentBasics(t *testing.T) {
	e := Extent{Start: 512, Len: 512}
	if e.End() != 1024 || e.Bytes() != 2<<20 || e.StartByte() != 2<<20 {
		t.Fatal("extent arithmetic wrong")
	}
}

func TestAlignedRegions(t *testing.T) {
	cases := []struct {
		name string
		free []Extent
		want int64
	}{
		{"empty", nil, 0},
		{"one aligned", []Extent{{0, 512}}, 1},
		{"two contiguous", []Extent{{0, 1024}}, 2},
		{"adjacent extents merge", []Extent{{0, 256}, {256, 256}}, 1},
		{"offset by one block", []Extent{{1, 512}}, 0},
		{"spanning a boundary", []Extent{{256, 768}}, 1}, // covers [512,1024)
		{"fragmented", []Extent{{0, 100}, {200, 100}, {400, 100}}, 0},
		{"unsorted input", []Extent{{1024, 512}, {0, 512}}, 2},
		{"gap between aligned", []Extent{{0, 512}, {1024, 512}}, 2},
	}
	for _, c := range cases {
		if got := AlignedRegions(c.free); got != c.want {
			t.Errorf("%s: AlignedRegions = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAlignedFreeFraction(t *testing.T) {
	if f := AlignedFreeFraction(nil); f != 0 {
		t.Fatal("empty fraction nonzero")
	}
	// 512 of 1024 free blocks in aligned regions.
	free := []Extent{{0, 512}, {10000, 512}} // 10000 not aligned (10000%512=272)
	if f := AlignedFreeFraction(free); f != 0.5 {
		t.Fatalf("fraction = %f, want 0.5", f)
	}
}

func TestMerge(t *testing.T) {
	in := []Extent{{10, 5}, {0, 10}, {20, 5}, {15, 5}, {30, 0}}
	out := Merge(in)
	if len(out) != 1 || out[0].Start != 0 || out[0].Len != 25 {
		t.Fatalf("merge = %+v", out)
	}
}

func TestMergeProperty(t *testing.T) {
	// Property: Merge output is sorted, disjoint, covers the same blocks.
	f := func(starts []uint16, lens []uint8) bool {
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		var in []Extent
		covered := make(map[int64]bool)
		for i := 0; i < n; i++ {
			e := Extent{Start: int64(starts[i]), Len: int64(lens[i] % 32)}
			in = append(in, e)
			for b := e.Start; b < e.End(); b++ {
				covered[b] = true
			}
		}
		out := Merge(in)
		var outCovered int64
		for i, e := range out {
			if e.Len <= 0 {
				return false
			}
			if i > 0 && out[i-1].End() >= e.Start {
				return false // not disjoint/sorted with gap
			}
			for b := e.Start; b < e.End(); b++ {
				if !covered[b] {
					return false
				}
			}
			outCovered += e.Len
		}
		return outCovered == int64(len(covered))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedRegionsProperty(t *testing.T) {
	// Property: region count equals brute-force count over the block bitmap.
	f := func(starts []uint16, lens []uint8) bool {
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		var in []Extent
		const space = 1 << 16
		bitmap := make([]bool, space+4096)
		for i := 0; i < n; i++ {
			e := Extent{Start: int64(starts[i]), Len: int64(lens[i])}
			in = append(in, e)
			for b := e.Start; b < e.End(); b++ {
				bitmap[b] = true
			}
		}
		// AlignedRegions requires non-overlapping input; merge first.
		merged := Merge(in)
		var brute int64
		for b := int64(0); b+BlocksPerHuge <= int64(len(bitmap)); b += BlocksPerHuge {
			all := true
			for i := int64(0); i < BlocksPerHuge; i++ {
				if !bitmap[b+i] {
					all = false
					break
				}
			}
			if all {
				brute++
			}
		}
		return AlignedRegions(merged) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
