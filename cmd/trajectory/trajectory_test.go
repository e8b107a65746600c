package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestExperimentsPrintsTheTrajectory holds EXPERIMENTS.md's per-PR tables
// to TRAJECTORY.json: each table is a block between
// "<!-- trajectory NAME -->" and "<!-- end -->" holding what the record
// prints. A block that differs, a table with no block and a block that
// names no table fail, and the message holds the block that belongs
// there. (make trajectory-check also wants the newest ISSUE's points.)
func TestExperimentsPrintsTheTrajectory(t *testing.T) {
	f, err := Load("../../TRAJECTORY.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bench.CheckBlocks(string(doc), kind, f.Blocks()) {
		t.Errorf("EXPERIMENTS.md: %s", p)
	}
}

// testFile is a record of three tables of one workload's metrics, the
// traced one with a column of two, and a host one, one column per workload.
func testFile() *File {
	return &File{
		Tables: []*Table{
			{Name: "v", Workload: "w1", What: true, Cols: []*Col{{Metrics: []string{"a"}}}},
			{Name: "t", Workload: "w1", Trace: 1, Cols: []*Col{{Metrics: []string{"x", "y"}, Plain: true}}},
			{Name: "h", Metric: "k", Cols: []*Col{{Workload: "w1"}, {Workload: "w2"}}},
		},
		PRs: []*PR{{PR: 1, What: "first"}, {PR: 2, What: "second", WhatIn: map[string]string{"v": "second, here"}}},
	}
}

func pt(pr int, w, m, parent, change string) *Point {
	return &Point{PR: pr, Workload: w, Metric: m, Seed: 1, Parent: json.Number(parent), Change: json.Number(change)}
}

// TestPrint holds the cell forms: digits as recorded, thousands
// separators and the typographic minus, bold, text before and a note
// after, points joined by " · ", "A / B" sides collapsing to ", both
// sides", n/r for no point or a point without numbers, and the label
// a table's row reads.
func TestPrint(t *testing.T) {
	f := testFile()
	held := pt(1, "w1", "a", "-1234.50", "99.20")
	held.Bold, held.Note = true, "claimed"
	second := pt(1, "w1", "a", "1", "2")
	second.Seed, second.Before = 7, "seed 7"
	f.Points = []*Point{
		held, second,
		pt(1, "w1", "x", "12345", "12345"), pt(1, "w1", "y", "6", "6"),
		pt(2, "w1", "x", "12345", "12346"), pt(2, "w1", "y", "6", "6"),
		pt(2, "w1", "a", "3", "4"),
		pt(1, "w2", "k", "1", "1"),
		pt(2, "w1", "k", "0.5", "0.25"),
		{PR: 2, Workload: "w2", Metric: "k", Seed: 1, Note: "not kept"},
	}
	if err := f.validate(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range f.Blocks() {
		got = append(got, b.Text)
	}
	want := []string{
		"| PR | what it changed | `a` |\n|---|---|---|\n" +
			"| 1 | first | **−1,234.50 → 99.20** (claimed) · seed 7 1 → 2 |\n" +
			"| 2 | second, here | 3 → 4 |\n",
		"| PR | `x` / `y` |\n|---|---|\n" +
			"| 1 | 12345 / 6, both sides |\n" +
			"| 2 | 12345 / 6 → 12346 / 6 |\n",
		"| PR | `w1` | `w2` |\n|---|---|---|\n" +
			"| 1 | n/r | 1 → 1 |\n" +
			"| 2 | 0.5 → 0.25 | n/r (not kept) |\n",
	}
	if strings.Join(got, "") != strings.Join(want, "") {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, ""), strings.Join(want, ""))
	}
}

// TestValidate refuses what printing could not place or pair.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(f *File)
		error string
	}{
		{"no such column", func(f *File) { f.Points = append(f.Points, pt(1, "w3", "a", "1", "2")) }, "in 0 table columns"},
		{"no such PR", func(f *File) { f.Points = append(f.Points, pt(3, "w1", "a", "1", "2")) }, "which PRs does not list"},
		{"one side", func(f *File) { f.Points = append(f.Points, pt(1, "w1", "a", "1", "")) }, "one side only"},
		{"not a number", func(f *File) { f.Points = append(f.Points, pt(1, "w1", "a", "1", "1,2")) }, "invalid syntax"},
		{"unpaired metric", func(f *File) { f.Points = append(f.Points, pt(1, "w1", "x", "1", "2")) }, "1 points of x and 0 of y"},
		{"PRs out of order", func(f *File) { f.PRs[0].PR = 3 }, "must ascend"},
	} {
		f := testFile()
		tc.edit(f)
		if err := f.validate(); err == nil || !strings.Contains(err.Error(), tc.error) {
			t.Errorf("%s: got %v, want an error holding %q", tc.name, err, tc.error)
		}
	}
}

// TestAddThenCheck runs trajectory -pr on bench-pair result lines: each
// side's median, printed with the digits of the column's newest value,
// replaces the PR's earlier points of that workload and seed; a workload
// no traced table has a column of is added without traced runs; the
// blocks are rewritten; and the check passes only while the newest ISSUE
// in CHANGES.md has points in every table.
func TestAddThenCheck(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	f := testFile()
	f.Points = []*Point{
		pt(1, "w1", "a", "1.50", "1.50"), pt(1, "w1", "x", "3", "3"), pt(1, "w1", "y", "4", "4"),
		pt(1, "w1", "k", "10.0", "10.0"), pt(1, "w2", "k", "2", "2"),
	}
	f.PRs = f.PRs[:1]
	if err := f.Save(record); err != nil {
		t.Fatal(err)
	}
	var blocks strings.Builder
	for _, b := range f.Blocks() {
		fmt.Fprintf(&blocks, "<!-- trajectory %s -->\n%s<!-- end -->\n\n", b.Name, b.Text)
	}
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(doc, "# doc\n\n"+blocks.String())
	pair := filepath.Join(dir, "pair")
	os.Mkdir(pair, 0o755)
	line := func(w string, seed int, a, x, y, k float64) string {
		return fmt.Sprintf(`{"workload":%q,"seed":%d,"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":%g,"unit":"u"},"x":{"value":%g,"unit":"u"},"y":{"value":%g,"unit":"u"},"k":{"value":%g,"unit":"u"}}}`+"\n", w, seed, a, x, y, k)
	}
	write(filepath.Join(pair, "base.jsonl"), line("w1", 1, 1.5, 0, 0, 10)+line("w1", 1, 1.7, 0, 0, 30)+line("w1", 1, 1.6, 0, 0, 20))
	write(filepath.Join(pair, "change.jsonl"), line("w1", 1, 1.25, 0, 0, 11)+line("w1", 1, 1.25, 0, 0, 12))
	write(filepath.Join(pair, "base.trace.jsonl"), line("w1", 1, 0, 5, 6, 0))
	write(filepath.Join(pair, "change.trace.jsonl"), line("w1", 1, 0, 5, 7, 0))
	write("CHANGES.md", "- ISSUE 1 · one\n- ISSUE 2 · two\n")
	for range 2 { // a second run replaces the first's points
		if err := add(2, "second", pair); err != nil {
			t.Fatal(err)
		}
	}
	// w2 has no column in a traced table: its pair needs no traced runs.
	if ws := f.traced(); !slices.Equal(ws, []string{"w1"}) {
		t.Errorf("traced workloads %q, want [w1]", ws)
	}
	bare := filepath.Join(dir, "bare")
	os.Mkdir(bare, 0o755)
	write(filepath.Join(bare, "base.jsonl"), line("w2", 1, 0, 0, 0, 3))
	write(filepath.Join(bare, "change.jsonl"), line("w2", 1, 0, 0, 0, 4))
	if err := add(2, "", bare); err != nil {
		t.Fatal(err)
	}
	got, err := Load(record)
	if err != nil {
		t.Fatal(err)
	}
	var added []string
	for _, p := range got.Points {
		if p.PR == 2 {
			added = append(added, fmt.Sprintf("%s %s %s→%s", p.Workload, p.Metric, p.Parent, p.Change))
		}
	}
	if want := "w1 a 1.60→1.25 | w1 x 5→5 | w1 y 6→7 | w1 k 20.0→11.5 | w2 k 3→4"; strings.Join(added, " | ") != want {
		t.Errorf("added %s, want %s", strings.Join(added, " | "), want)
	}
	text, _ := os.ReadFile(doc)
	if p := bench.CheckBlocks(string(text), kind, got.Blocks()); len(p) > 0 {
		t.Errorf("the blocks were not rewritten: %q", p)
	}
	if !strings.Contains(string(text), "| 2 | second | 1.60 → 1.25 |\n") || !strings.Contains(string(text), "| 2 | 5 / 6 → 5 / 7 |\n") {
		t.Errorf("no row of PR 2 in\n%s", text)
	}
	if err := check(); err != nil {
		t.Errorf("check after add: %v", err)
	}
	write("CHANGES.md", "- ISSUE 3 · three\n")
	if err := check(); err == nil {
		t.Error("check passed with no points of the newest ISSUE")
	}
}
