package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestLayersOfFixture pins the rows of a checked-in `pprof -traces -lines`
// excerpt: each sample goes to its innermost module frame, past inlined
// standard-library frames and through generic shapes with spaces in
// them; winefs splits by file; the GC sample has no module frame; and the
// shares sum to the total.
func TestLayersOfFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := layers(f)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	sum := 0.0
	for _, p := range rep.Points {
		ms, _ := rep.Value("MS", p.Labels)
		pct, _ := rep.Value("Pct", p.Labels)
		got = append(got, fmt.Sprintf("%s %.0f", p.Labels["Layer"], ms))
		if p.Labels["Layer"] != "total" {
			sum += pct
		} else if pct != 100 {
			t.Errorf("total share %.2f%%", pct)
		}
	}
	want := []string{"main 1200", "pmem 200", "(no repro frame) 10", "rbtree 10", "vfs 10",
		"winefs/allocator 10", "winefs/file 10", "winefs/journal 10", "winefs/other 10", "winefs_test 10", "total 1480"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("rows\n%s\nwant\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layer shares sum to %.4f%%", sum)
	}
}

func TestLayersRejectsOtherInput(t *testing.T) {
	for _, in := range []string{"", "Showing nodes accounting for 1.34s\n", "-----------+----\n  12MB   repro/internal/pmem.New /x/pmem.go:1\n"} {
		if _, err := layers(strings.NewReader(in)); err == nil {
			t.Errorf("%q: no error", in)
		}
	}
}

// TestCompareSides puts the fixture beside a profile with one pmem sample
// and one sim sample: every layer of either side gets a row, a side
// without it reads 0, and the difference is change minus base.
func TestCompareSides(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := layers(f)
	if err != nil {
		t.Fatal(err)
	}
	change, err := layers(strings.NewReader(`-----------+----
      30ms   repro/internal/pmem.(*Device).WriteAt /src/repro/internal/pmem/device.go:506
-----------+----
      10ms   repro/internal/sim.skipBusy /src/repro/internal/sim/rwresource.go:140
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := compare(base, change)
	var got []string
	for _, p := range rep.Points {
		v := func(f string) float64 { x, _ := rep.Value(f, p.Labels); return x }
		got = append(got, fmt.Sprintf("%s %.0f→%.0f %+.0f", p.Labels["Layer"], v("BaseMS"), v("MS"), v("DeltaMS")))
	}
	want := "pmem 200→30 -170, sim 0→10 +10, main 1200→0 -1200, (no repro frame) 10→0 -10, rbtree 10→0 -10, vfs 10→0 -10, " +
		"winefs/allocator 10→0 -10, winefs/file 10→0 -10, winefs/journal 10→0 -10, winefs/other 10→0 -10, winefs_test 10→0 -10, total 1480→40 -1440"
	if strings.Join(got, ", ") != want {
		t.Errorf("rows\n%s\nwant\n%s", strings.Join(got, ", "), want)
	}
	if d, _ := rep.Value("DeltaPct", map[string]string{"Layer": "pmem"}); d < 61.48 || d > 61.49 {
		t.Errorf("pmem share moved %.3f points, want 75 - 13.51 = 61.49", d)
	}
}
