package bench

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is the layout of one human table over a report's points. It is
// data, kept next to the code that packs the report; Print is the only
// code that turns points into rows.
type Table struct {
	Title string
	// Where picks the points the table shows: each listed label must
	// carry the given value, or one of several separated by "|". Rows
	// follow the points' order.
	Where map[string]string
	// Rows are the labels whose values, joined by a space, name a point's
	// row, under the header RowHead; "Threads" reads Point.Threads. With
	// no Rows the table is transposed: one line per column, headed
	// "metric", and one "value" column per point.
	Rows    []string
	RowHead string
	// Pivot, when set, is a label whose values become the columns, in the
	// order the points first carry them. Each cell shows the first column
	// of the point at that row and pivot value, and "-" where none is.
	Pivot string
	Cols  []Col
	// Else is the row form of a point that carries none of Cols' fields:
	// Else[i] fills the column of Cols[i], and a column past its end is
	// blank.
	Else []Col
}

// Col is one column: its header and how a point's fields fill its cell.
type Col struct {
	Head string
	// Field names the field shown; "A,B" passes several fields to Fmt.
	// An Exact field a point lacks reads as 0, as Check reads it
	// (AddCounters leaves zero counters out); a point without any other
	// field shows "-": that value was not taken.
	Field string
	// Fmt formats the values, each first multiplied by Scale (0 means 1),
	// with its precision and unit: "%.2f", "%.1fx", "%.0f%%". An empty
	// Fmt is the compact count form: 950, 27.7k, 1.50M.
	Fmt   string
	Scale float64
	// Label, when set, shows that label of the point instead of a field.
	Label string
}

// Print writes each table over r's points, with aligned columns.
func (r *Report) Print(w io.Writer, tables ...Table) {
	cl := r.Classes()
	for _, t := range tables {
		var pts []*Point
		for _, p := range r.Points {
			if selects(t.Where, p) {
				pts = append(pts, p)
			}
		}
		var head []string
		var body [][]string
		switch {
		case t.Pivot != "":
			var rows, cols []string
			at := map[[2]string]*Point{}
			for _, p := range pts {
				row, col := t.rowName(p), label(p, t.Pivot)
				if !slices.Contains(rows, row) {
					rows = append(rows, row)
				}
				if !slices.Contains(cols, col) {
					cols = append(cols, col)
				}
				at[[2]string{row, col}] = p
			}
			head = append([]string{t.RowHead}, cols...)
			for _, row := range rows {
				line := []string{row}
				for _, col := range cols {
					cell := "-"
					if p := at[[2]string{row, col}]; p != nil {
						cell = t.cells(p, cl)[0]
					}
					line = append(line, cell)
				}
				body = append(body, line)
			}
		case len(t.Rows) == 0:
			head = []string{"metric"}
			for range pts {
				head = append(head, "value")
			}
			for i, c := range t.Cols {
				line := []string{c.Head}
				for _, p := range pts {
					line = append(line, t.cells(p, cl)[i])
				}
				body = append(body, line)
			}
		default:
			head = []string{t.RowHead}
			for _, c := range t.Cols {
				head = append(head, c.Head)
			}
			for _, p := range pts {
				body = append(body, append([]string{t.rowName(p)}, t.cells(p, cl)...))
			}
		}
		printAligned(w, t.Title, head, body)
	}
}

// selects reports whether p carries every label of where, each with its
// value or one of several separated by "|".
func selects(where map[string]string, p *Point) bool {
	for k, v := range where {
		if !slices.Contains(strings.Split(v, "|"), label(p, k)) {
			return false
		}
	}
	return true
}

func (t *Table) rowName(p *Point) string {
	var parts []string
	for _, k := range t.Rows {
		parts = append(parts, label(p, k))
	}
	return strings.Join(parts, " ")
}

func label(p *Point, key string) string {
	if key == "Threads" {
		return strconv.Itoa(p.Threads)
	}
	return p.Labels[key]
}

// cells renders p's row: with Cols if p carries any of their fields,
// else with Else.
func (t *Table) cells(p *Point, cl Classes) []string {
	cols := t.Cols
	if len(t.Else) > 0 && !carriesAny(p, t.Cols) {
		cols = t.Else
	}
	out := make([]string, len(t.Cols))
	for i := range min(len(cols), len(out)) {
		out[i] = cols[i].cell(p, cl)
	}
	return out
}

func carriesAny(p *Point, cols []Col) bool {
	for _, c := range cols {
		for _, name := range strings.Split(c.Field, ",") {
			if _, ok := p.field(name); ok {
				return true
			}
		}
	}
	return false
}

func (c Col) cell(p *Point, cl Classes) string {
	if c.Label != "" {
		return label(p, c.Label)
	}
	scale := c.Scale
	if scale == 0 {
		scale = 1
	}
	var args []any
	for _, name := range strings.Split(c.Field, ",") {
		v, ok := p.field(name)
		if !ok && cl.Of(name) != Exact {
			return "-"
		}
		args = append(args, v*scale)
	}
	if c.Fmt != "" {
		return fmt.Sprintf(c.Fmt, args...)
	}
	switch v := args[0].(float64); {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// printAligned renders a titled table with left-aligned, padded columns;
// no line ends in a space, so its output pastes into a document unchanged.
// Widths count runes, as %-*s pads, so "≥" or "×" widens a cell by one.
func printAligned(w io.Writer, title string, head []string, body [][]string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	widths := make([]int, len(head))
	sep := make([]string, len(head))
	for _, row := range append([][]string{head}, body...) {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	for _, row := range append([][]string{head, sep}, body...) {
		parts := make([]string, len(row))
		for i, cell := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight("  "+strings.Join(parts, "  "), " "))
	}
}
