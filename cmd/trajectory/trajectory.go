package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
)

// File is TRAJECTORY.json: the tables EXPERIMENTS.md prints, the PRs that
// have rows in them and each PR's points.
type File struct {
	Tables []*Table
	PRs    []*PR
	Points []*Point
}

// Table is one per-PR table, printed into EXPERIMENTS.md between
// "<!-- trajectory Name -->" and "<!-- end -->". Its columns are metrics
// of one Workload, or one Metric of several workloads; a point belongs
// to the one column of its workload and metric. A PR has a row when it
// has a point in any column.
type Table struct {
	Name     string
	Workload string `json:",omitempty"`
	Metric   string `json:",omitempty"`
	// Trace is the benchmark's --trace mode the points come from.
	Trace int
	// What adds the "what it changed" column, the PR's label.
	What bool `json:",omitempty"`
	Cols []*Col
}

// Col is one column. Workload or Metrics fills in what the table does
// not fix; a column of several metrics shows each side as "A / B", and
// ", both sides" when every value reads the same on both.
type Col struct {
	Workload string   `json:",omitempty"`
	Metrics  []string `json:",omitempty"`
	// Plain prints the values without thousands separators.
	Plain bool `json:",omitempty"`
}

// PR is one PR's "what it changed" label, and the row text of each table
// whose row says something else.
type PR struct {
	PR     int
	What   string
	WhatIn map[string]string `json:",omitempty"`
}

// Point is one measurement of a PR: a metric of a workload at a seed, at
// the parent commit and with the change, as the decimal numbers the
// record took (printed with the digits they carry). A cell shows its
// points in file order, joined by " · ", and "n/r" when it has none.
type Point struct {
	PR       int
	Workload string
	Metric   string
	Seed     uint64
	// Parent and Change are both set or both left out; a point without
	// them is a cell with no numbers on record, which prints as "n/r".
	Parent json.Number `json:",omitempty"`
	Change json.Number `json:",omitempty"`
	// Bold marks a claimed or headline result; Before is printed ahead of
	// the values ("seed 20210926") and Note after them, in parentheses.
	Bold   bool   `json:",omitempty"`
	Before string `json:",omitempty"`
	Note   string `json:",omitempty"`
}

// Load reads and validates a TRAJECTORY.json.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	f := &File{}
	if err := dec.Decode(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// validate holds f to what printing it assumes: PRs in ascending order,
// each point in exactly one column and of a listed PR, its values both
// set or both left out and numbers, and as many points in each metric
// of a column of several.
func (f *File) validate() error {
	names := map[string]bool{}
	for _, t := range f.Tables {
		if names[t.Name] {
			return fmt.Errorf("two tables %q", t.Name)
		}
		names[t.Name] = true
	}
	for i, pr := range f.PRs {
		if i > 0 && pr.PR <= f.PRs[i-1].PR {
			return fmt.Errorf("PR %d follows PR %d: PRs must ascend", pr.PR, f.PRs[i-1].PR)
		}
		for name := range pr.WhatIn {
			if !names[name] {
				return fmt.Errorf("PR %d: WhatIn names no table %q", pr.PR, name)
			}
		}
	}
	type cell struct {
		pr               int
		workload, metric string
	}
	count := map[cell]int{}
	for _, p := range f.Points {
		if f.pr(p.PR) == nil {
			return fmt.Errorf("a point of PR %d, which PRs does not list", p.PR)
		}
		if n := f.columns(p.Workload, p.Metric); n != 1 {
			return fmt.Errorf("PR %d: %s %s is in %d table columns, not one", p.PR, p.Workload, p.Metric, n)
		}
		if (p.Parent == "") != (p.Change == "") {
			return fmt.Errorf("PR %d: %s %s has one side only", p.PR, p.Workload, p.Metric)
		}
		for _, v := range []json.Number{p.Parent, p.Change} {
			if _, err := v.Float64(); v != "" && err != nil {
				return fmt.Errorf("PR %d: %s %s: %w", p.PR, p.Workload, p.Metric, err)
			}
		}
		count[cell{p.PR, p.Workload, p.Metric}]++
	}
	for _, t := range f.Tables {
		for _, c := range t.Cols {
			w, ms := t.col(c)
			for _, pr := range f.PRs {
				for _, m := range ms[1:] {
					if a, b := count[cell{pr.PR, w, ms[0]}], count[cell{pr.PR, w, m}]; a != b {
						return fmt.Errorf("PR %d: %s has %d points of %s and %d of %s", pr.PR, w, a, ms[0], b, m)
					}
				}
			}
		}
	}
	return nil
}

func (f *File) pr(n int) *PR {
	for _, pr := range f.PRs {
		if pr.PR == n {
			return pr
		}
	}
	return nil
}

// col returns the workload and metrics of column c of t.
func (t *Table) col(c *Col) (string, []string) {
	w, ms := c.Workload, c.Metrics
	if w == "" {
		w = t.Workload
	}
	if len(ms) == 0 {
		ms = []string{t.Metric}
	}
	return w, ms
}

// columns counts the table columns that hold workload's metric.
func (f *File) columns(workload, metric string) int {
	n := 0
	for _, t := range f.Tables {
		for _, c := range t.Cols {
			if w, ms := t.col(c); w == workload && slices.Contains(ms, metric) {
				n++
			}
		}
	}
	return n
}

// points returns pr's points of workload's metric, in file order.
func (f *File) points(pr int, workload, metric string) []*Point {
	var ps []*Point
	for _, p := range f.Points {
		if p.PR == pr && p.Workload == workload && p.Metric == metric {
			ps = append(ps, p)
		}
	}
	return ps
}

// has reports whether pr has a point in any column of t.
func (f *File) has(t *Table, pr int) bool {
	for _, c := range t.Cols {
		w, ms := t.col(c)
		for _, m := range ms {
			if len(f.points(pr, w, m)) > 0 {
				return true
			}
		}
	}
	return false
}

// Blocks returns every table as the block EXPERIMENTS.md shows.
func (f *File) Blocks() []bench.Block {
	var bs []bench.Block
	for _, t := range f.Tables {
		bs = append(bs, bench.Block{Name: t.Name, Text: f.print(t)})
	}
	return bs
}

// print renders t as a markdown table, one row per PR that has points in it.
func (f *File) print(t *Table) string {
	head := []string{"PR"}
	if t.What {
		head = append(head, "what it changed")
	}
	for _, c := range t.Cols {
		w, ms := t.col(c)
		if t.Workload == "" {
			ms = []string{w}
		}
		head = append(head, "`"+strings.Join(ms, "` / `")+"`")
	}
	var sb strings.Builder
	row := func(cells []string) { fmt.Fprintf(&sb, "| %s |\n", strings.Join(cells, " | ")) }
	row(head)
	sb.WriteString(strings.Repeat("|---", len(head)) + "|\n")
	for _, pr := range f.PRs {
		if !f.has(t, pr.PR) {
			continue
		}
		cells := []string{fmt.Sprint(pr.PR)}
		if t.What {
			what, ok := pr.WhatIn[t.Name]
			if !ok {
				what = pr.What
			}
			cells = append(cells, what)
		}
		for _, c := range t.Cols {
			cells = append(cells, f.cell(t, c, pr.PR))
		}
		row(cells)
	}
	return sb.String()
}

// cell renders pr's points in column c of t.
func (f *File) cell(t *Table, c *Col, pr int) string {
	w, ms := t.col(c)
	var byMetric [][]*Point
	for _, m := range ms {
		byMetric = append(byMetric, f.points(pr, w, m))
	}
	if len(byMetric[0]) == 0 {
		return "n/r"
	}
	var parts []string
	for i, p := range byMetric[0] {
		s := "n/r"
		if p.Parent != "" {
			var parent, change []string
			moved := false
			for _, ps := range byMetric {
				parent = append(parent, number(ps[i].Parent, c.Plain))
				change = append(change, number(ps[i].Change, c.Plain))
				moved = moved || ps[i].Parent != ps[i].Change
			}
			s = strings.Join(parent, " / ") + " → " + strings.Join(change, " / ")
			if len(ms) > 1 && !moved {
				s = strings.Join(parent, " / ") + ", both sides"
			}
		}
		if p.Bold {
			s = "**" + s + "**"
		}
		if p.Before != "" {
			s = p.Before + " " + s
		}
		if p.Note != "" {
			s += " (" + p.Note + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " · ")
}

// number prints a value with the digits it was recorded with, a
// typographic minus, and thousands separators unless plain.
func number(n json.Number, plain bool) string {
	s, neg := strings.CutPrefix(string(n), "-")
	if !plain {
		whole, frac, dot := strings.Cut(s, ".")
		for i := len(whole) - 3; i > 0; i -= 3 {
			whole = whole[:i] + "," + whole[i:]
		}
		s = whole
		if dot {
			s += "." + frac
		}
	}
	if neg {
		s = "−" + s
	}
	return s
}

// Save writes f with one table, PR or point a line, so that a PR's new
// points are a diff of added lines.
func (f *File) Save(path string) error {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	if err := errors.Join(section(&buf, "Tables", f.Tables, ","), section(&buf, "PRs", f.PRs, ","),
		section(&buf, "Points", f.Points, "")); err != nil {
		return err
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// section writes `"name": [`, one JSON value of items a line, and `]`
// followed by after.
func section[T any](buf *bytes.Buffer, name string, items []T, after string) error {
	fmt.Fprintf(buf, "%q: [\n", name)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	for i, it := range items {
		if i > 0 {
			buf.WriteString(",\n")
		}
		if err := enc.Encode(it); err != nil {
			return err
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
	}
	fmt.Fprintf(buf, "\n]%s\n", after)
	return nil
}
