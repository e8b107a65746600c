package bench

import (
	"strings"
	"testing"
)

// printed renders tables over points of a report tagged "t/v1" (classes
// sweepClasses, through Print's own lookup) and returns its lines with
// the padding squeezed to one space. A line that ends in a space fails.
func printed(t *testing.T, pts []*Point, tables ...Table) []string {
	t.Helper()
	known["t/v1"] = sweepClasses
	defer delete(known, "t/v1")
	var sb strings.Builder
	(&Report{Bench: "t/v1", Points: pts}).Print(&sb, tables...)
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasSuffix(l, " ") {
			t.Errorf("line %q ends in a space", l)
		}
		lines = append(lines, strings.Join(strings.Fields(l), " "))
	}
	return lines
}

func point(labels map[string]string, threads int, exact, info map[string]float64) *Point {
	return &Point{Labels: labels, Threads: threads, Exact: exact, Info: info}
}

func TestTablePrinting(t *testing.T) {
	type ls = map[string]string
	type vs = map[string]float64
	pts := []*Point{
		point(ls{"FS": "a", "Kind": "x"}, 0, vs{"Ops": 1500, "Bytes": 4}, vs{"Note": 0.25}),
		point(ls{"FS": "bb", "Kind": "x"}, 0, vs{"Ops": 3}, nil),
		point(ls{"FS": "c", "Kind": "y"}, 0, nil, vs{"Note": 2}),
	}
	for _, tc := range []struct {
		name  string
		table Table
		want  []string
	}{
		{"rows and columns", Table{Title: "plain", Where: ls{"Kind": "x"}, Rows: []string{"FS"}, RowHead: "fs",
			Cols: []Col{{Head: "ops", Field: "Ops"}, {Head: "note", Field: "Note", Fmt: "%.0f%%", Scale: 100}, {Head: "io", Field: "Ops,Bytes", Fmt: "%.0f/%.0f"}}},
			[]string{"=== plain ===", "fs ops note io", "-- ---- ---- ------", "a 1.5k 25% 1500/4", "bb 3 - 3/0"}},
		{"Where alternatives and the Else form", Table{Title: "else", Where: ls{"Kind": "x|y"}, Rows: []string{"FS"}, RowHead: "fs",
			Cols: []Col{{Head: "ops", Field: "Ops", Fmt: "%.0f"}, {Head: "bytes", Field: "Bytes", Fmt: "%.0f"}},
			Else: []Col{{Field: "Note", Fmt: "%.1fx"}}},
			[]string{"=== else ===", "fs ops bytes", "-- ---- -----", "a 1500 4", "bb 3 0", "c 2.0x"}},
		{"a label as a column", Table{Title: "labels", Where: ls{"Kind": "x"}, Rows: []string{"FS"}, RowHead: "fs",
			Cols: []Col{{Head: "kind", Label: "Kind"}, {Head: "ops", Field: "Ops", Fmt: "%.0f"}}},
			[]string{"=== labels ===", "fs kind ops", "-- ---- ----", "a x 1500", "bb x 3"}},
		{"transposed", Table{Title: "one", Where: ls{"FS": "a"}, Cols: []Col{{Head: "ops", Field: "Ops", Fmt: "%.0f"}, {Head: "bytes", Field: "Bytes", Fmt: "%.0fB"}}},
			[]string{"=== one ===", "metric value", "------ -----", "ops 1500", "bytes 4B"}},
	} {
		got := printed(t, pts, tc.table)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestPivotTable holds a pivoted table to the points' order, for its rows
// and its columns alike, and fills a missing cell with "-".
func TestPivotTable(t *testing.T) {
	type ls = map[string]string
	type vs = map[string]float64
	var pts []*Point
	// Columns first seen in the order z, a; thread 4 has no point for a.
	for _, c := range []struct {
		fs      string
		threads int
		ops     float64
	}{{"z", 1, 10}, {"a", 1, 20}, {"z", 4, 30}, {"z", 2, 40}, {"a", 2, 50}} {
		pts = append(pts, point(ls{"FS": c.fs}, c.threads, vs{"Ops": c.ops}, nil))
	}
	got := printed(t, pts, Table{Title: "pivot", Rows: []string{"Threads"}, RowHead: "threads", Pivot: "FS",
		Cols: []Col{{Field: "Ops", Fmt: "%.0f"}}})
	want := []string{"=== pivot ===", "threads z a", "------- -- --", "1 10 20", "4 30 -", "2 40 50"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWidthsCountRunes holds a column holding "≥", "×", "–" and "→" to
// the width of its widest cell in runes, the unit %-*s pads in: sized in
// bytes, the column would be padded up to two spaces too wide per rune.
func TestWidthsCountRunes(t *testing.T) {
	var sb strings.Builder
	rep := &Report{}
	for _, c := range [][2]string{{"≥3×", "a"}, {"1–2→3", "b"}, {"ab", "c"}} {
		rep.Point(map[string]string{"Cell": c[0], "Next": c[1]}, 0)
	}
	rep.Print(&sb, Table{Title: "runes", Rows: []string{"Cell"}, RowHead: "cell", Cols: []Col{{Head: "next", Label: "Next"}}})
	want := "\n=== runes ===\n  cell   next\n  -----  ----\n  ≥3×    a\n  1–2→3  b\n  ab     c\n"
	if sb.String() != want {
		t.Errorf("got\n%s\nwant\n%s", sb.String(), want)
	}
}
