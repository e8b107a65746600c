// Package bench is the one report schema, the one baseline checker, the
// one claim table and the one table printer behind every winebench result
// and committed BENCH_*.json gate. A winebench mode or paper experiment
// packs the typed result it already holds into Points; the field classes
// of its report (classes.go) decide how each value is compared against the
// committed baseline, the claims about its schema (claims.go) what it must
// show, and a Table layout (table.go) how it prints. DESIGN.md "Bench
// reports" gives the reason for every rule below.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/perf"
)

const (
	// lockWaitTolerance is the relative drift a Toleranced field may show:
	// tied virtual-time lock arrivals are booked in real arrival order, so
	// contention-derived numbers wobble with host scheduling.
	lockWaitTolerance = 0.25
	// lockWaitFloorNS exempts near-zero lock-wait totals of a thread sweep:
	// one displaced booking is a few hundred ns, a huge relative error on a
	// near-zero baseline that means nothing.
	lockWaitFloorNS = 20000
	// strictTimingThreads bounds the regime where Toleranced and Placement
	// fields are compared at all; past it the slowest thread's span is
	// bimodal run to run and only the work counters are held.
	strictTimingThreads = 16
	// placementFloor is the count a Placement field must exceed on either
	// side before it is compared: a handful of steals is all tie-breaking.
	placementFloor = 16
)

// Report is the schema of every BENCH_*.json.
type Report struct {
	Bench  string             // schema tag, e.g. "scaling/v1"; selects the Classes
	Config map[string]float64 // the run's parameters; must equal the baseline's
	Points []*Point
}

// Point is one measurement. A name lives in exactly one of the three value
// maps, chosen by its Class when the point is packed; an Exact name
// missing from a map reads as 0, which is what lets zero counters be
// omitted.
type Point struct {
	Labels     map[string]string  `json:",omitempty"` // identity; must equal the baseline's
	Threads    int                `json:",omitempty"` // >0 only in a thread sweep
	Exact      map[string]float64 `json:",omitempty"` // compared for equality, bit for bit
	Toleranced map[string]float64 `json:",omitempty"` // Toleranced and Placement fields
	Info       map[string]float64 `json:",omitempty"` // recorded, never compared

	cl Classes
}

// New starts a report for a known schema tag; an unknown tag is a bug.
func New(tag string, config map[string]float64) *Report {
	if _, ok := known[tag]; !ok {
		panic("bench: unknown report tag " + tag)
	}
	return &Report{Bench: tag, Config: config}
}

// Point appends an empty point that files values by r's field classes.
func (r *Report) Point(labels map[string]string, threads int) *Point {
	p := &Point{Labels: labels, Threads: threads, cl: r.Classes()}
	r.Points = append(r.Points, p)
	return p
}

// Ints files integer values, zeros included, under their classes.
func (p *Point) Ints(vals map[string]int64) {
	for name, v := range vals {
		p.file(name, float64(v))
	}
}

// Floats files values, zeros included, under their classes.
func (p *Point) Floats(vals map[string]float64) {
	for name, v := range vals {
		p.file(name, v)
	}
}

// AddCounters files every non-zero counter of c as prefix+name.
func (p *Point) AddCounters(prefix string, c *perf.Counters) {
	for _, f := range c.Fields() {
		if f.Value != 0 {
			p.file(prefix+f.Name, float64(f.Value))
		}
	}
}

func (p *Point) file(name string, v float64) {
	m := &p.Toleranced
	switch p.cl.Of(name) {
	case Exact:
		m = &p.Exact
	case Info:
		m = &p.Info
	}
	if *m == nil {
		*m = map[string]float64{}
	}
	(*m)[name] = v
}

// field returns a field of p and whether p carries it.
func (p *Point) field(name string) (float64, bool) {
	for _, m := range []map[string]float64{p.Exact, p.Toleranced, p.Info} {
		if v, ok := m[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// nonExact returns p's Toleranced and Info fields.
func (p *Point) nonExact() map[string]float64 {
	m := map[string]float64{}
	maps.Copy(m, p.Toleranced)
	maps.Copy(m, p.Info)
	return m
}

// Classes returns the field classes of r's schema tag.
func (r *Report) Classes() Classes { return known[r.Bench] }

// Only returns r holding just the points that carry every label of
// where, read as a Table's Where; a nil where keeps them all.
func (r *Report) Only(where map[string]string) *Report {
	o := *r
	o.Points = nil
	for _, p := range r.Points {
		if selects(where, p) {
			o.Points = append(o.Points, p)
		}
	}
	return &o
}

// Value returns field name of the first of r's points that carries it and
// every label of where, read as a Table's Where.
func (r *Report) Value(name string, where map[string]string) (float64, bool) {
	for _, p := range r.Points {
		if v, ok := p.field(name); ok && selects(where, p) {
			return v, true
		}
	}
	return 0, false
}

// id renders a point's identity for diffs and errors.
func (p *Point) id() string {
	var parts []string
	for _, k := range sortedKeys(p.Labels) {
		parts = append(parts, k+"="+p.Labels[k])
	}
	if p.Threads > 0 {
		parts = append(parts, fmt.Sprintf("Threads=%d", p.Threads))
	}
	return strings.Join(parts, ",")
}

// Encode renders the report as indented JSON with one line per value map:
// keys are sorted, so the same report always encodes to the same bytes.
func (r *Report) Encode() ([]byte, error) {
	var err error
	js := func(v any) string {
		buf, e := json.Marshal(v)
		if e != nil && err == nil {
			err = e
		}
		return string(buf)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n \"Bench\": %s,\n \"Config\": %s,\n \"Points\": [", js(r.Bench), js(r.Config))
	for i, p := range r.Points {
		var head, parts []string
		if len(p.Labels) > 0 {
			head = append(head, `"Labels": `+js(p.Labels))
		}
		if p.Threads != 0 {
			head = append(head, `"Threads": `+js(p.Threads))
		}
		if len(head) > 0 {
			parts = append(parts, strings.Join(head, ", "))
		}
		if len(p.Exact) > 0 {
			parts = append(parts, `"Exact": `+js(p.Exact))
		}
		if len(p.Toleranced) > 0 {
			parts = append(parts, `"Toleranced": `+js(p.Toleranced))
		}
		if len(p.Info) > 0 {
			parts = append(parts, `"Info": `+js(p.Info))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n  {" + strings.Join(parts, ",\n   ") + "}")
	}
	b.WriteString("\n ]\n}\n")
	return b.Bytes(), err
}

// Load reads a report; a file in any other schema is an error.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Bench == "" || len(r.Points) == 0 {
		return nil, fmt.Errorf("%s: not a bench report (no Bench tag or no Points)", path)
	}
	return &r, nil
}

// Diff is one field of one point that left its class's bounds.
type Diff struct {
	Point  string // the point's labels, "" for a single-point report
	Name   string
	Detail string // "= got, baseline want"
}

func (d Diff) String() string {
	if d.Point == "" {
		return d.Name + " " + d.Detail
	}
	return d.Point + ": " + d.Name + " " + d.Detail
}

// Check compares a run against a baseline of the same shape. Exact fields
// must be equal; one a point lacks reads as 0, as AddCounters leaves zero
// counters out. Any other field must be carried by both points or by
// neither, since Print shows "-" where it is missing: a baseline recorded
// before its mode packed a field fails. Toleranced values must be within
// lockWaitTolerance, and Placement values too once either side exceeds
// placementFloor; both are skipped past strictTimingThreads, and in a
// thread sweep a LockWaitNS total is skipped while both sides are under
// lockWaitFloorNS. Info values are not compared. A different tag, config,
// point count or point identity means the two are not comparable: an
// error, not a Diff.
func Check(run, base *Report, cl Classes) ([]Diff, error) {
	if run.Bench != base.Bench {
		return nil, fmt.Errorf("report is %q, baseline is %q", run.Bench, base.Bench)
	}
	for _, k := range unionKeys(run.Config, base.Config) {
		g, gok := run.Config[k]
		w, wok := base.Config[k]
		if g != w || gok != wok {
			return nil, fmt.Errorf("configuration mismatch: run %v vs baseline %v", run.Config, base.Config)
		}
	}
	if len(run.Points) != len(base.Points) {
		return nil, fmt.Errorf("point count mismatch: %d vs baseline %d", len(run.Points), len(base.Points))
	}
	var diffs []Diff
	for i, got := range run.Points {
		want := base.Points[i]
		id := got.id()
		if id != want.id() {
			return nil, fmt.Errorf("point %d is %q, baseline has %q", i, id, want.id())
		}
		for _, name := range unionKeys(got.Exact, want.Exact) {
			if g, w := got.Exact[name], want.Exact[name]; g != w {
				diffs = append(diffs, Diff{id, name, "= " + num(g) + ", baseline " + num(w)})
			}
		}
		gn, wn := got.nonExact(), want.nonExact()
		for _, name := range unionKeys(gn, wn) {
			if _, ok := wn[name]; !ok {
				diffs = append(diffs, Diff{id, name, "= " + num(gn[name]) + ", not in the baseline"})
			} else if _, ok := gn[name]; !ok {
				diffs = append(diffs, Diff{id, name, "missing, baseline " + num(wn[name])})
			}
		}
		if got.Threads > strictTimingThreads {
			continue
		}
		for _, name := range sortedKeys(got.Toleranced) {
			g := got.Toleranced[name]
			w, ok := want.Toleranced[name]
			if !ok {
				continue
			}
			floor := 0.0
			if cl.Of(name) == Placement {
				floor = placementFloor
			} else if got.Threads > 0 && name == "LockWaitNS" {
				floor = lockWaitFloorNS
			}
			if (g == 0 && w == 0) || (floor > 0 && g <= floor && w <= floor) {
				continue
			}
			if w == 0 || g < w*(1-lockWaitTolerance) || g > w*(1+lockWaitTolerance) {
				diffs = append(diffs, Diff{id, name,
					fmt.Sprintf("= %g, baseline %g (>%.0f%% off)", g, w, lockWaitTolerance*100)})
			}
		}
	}
	return diffs, nil
}

// Finish is the epilogue of every run: print the verdicts of the claims
// about the report's schema, write the report if asked, then check it
// against the committed baseline if asked, printing each diff. Claims and
// baseline are both scoped by where: the run is held to the claims and the
// baseline's points whose figure, or labels, carry every label of where,
// so a run of some of a report's selections is held to what it selected;
// a nil where holds it to all of them. Any claim that does not hold or
// cannot be evaluated fails the run, as a regression does.
func Finish(rep *Report, jsonOut, baseline string, where map[string]string) error {
	vs := rep.Verdicts(where)
	if len(vs) > 0 {
		PrintVerdicts(os.Stdout, vs)
	}
	claims := failed(vs)
	if jsonOut != "" {
		buf, err := rep.Encode()
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		if err := os.WriteFile(jsonOut, buf, 0o644); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		fmt.Printf("wrote BENCH report to %s\n", jsonOut)
	}
	if baseline == "" {
		return claims
	}
	return errors.Join(claims, holdTo(rep, baseline, where))
}

// holdTo checks rep against the baseline file's points that carry every
// label of where, printing each diff.
func holdTo(rep *Report, baseline string, where map[string]string) error {
	base, err := Load(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	diffs, err := Check(rep, base.Only(where), rep.Classes())
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	}
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "  regression: %s\n", d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("baseline %s: %d regressions", baseline, len(diffs))
	}
	fmt.Printf("baseline check OK against %s\n", baseline)
	return nil
}

// num renders a value without an exponent: counters print as integers.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	return unionKeys(m, nil)
}

// unionKeys returns the sorted keys present in either map.
func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
