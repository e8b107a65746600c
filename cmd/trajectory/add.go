package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// run is one result line of the benchmark's -out file.
type run struct {
	Workload string
	Seed     uint64
	Correct  bool
	Metrics  map[string]struct{ Value float64 }
}

// readRuns reads a -out file of one workload and seed.
func readRuns(path string) ([]run, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var runs []run
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run of %s seed %d is not correct", path, r.Workload, r.Seed)
		}
		if len(runs) > 0 && (r.Workload != runs[0].Workload || r.Seed != runs[0].Seed) {
			return nil, fmt.Errorf("%s: runs of %s seed %d and %s seed %d", path, runs[0].Workload, runs[0].Seed, r.Workload, r.Seed)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// median returns the median of metric over runs and whether every run has it.
func median(runs []run, metric string) (float64, bool) {
	var vs []float64
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return 0, false
		}
		vs = append(vs, m.Value)
	}
	slices.Sort(vs)
	n := len(vs)
	return (vs[(n-1)/2] + vs[n/2]) / 2, true
}

// add is trajectory -pr: PR pr's points from the bench-pair results in dir.
func add(pr int, label, dir string) error {
	f, err := Load(record)
	if err != nil {
		return err
	}
	// sides[trace][0] holds the base runs at that --trace mode, [1] the
	// change's; the traced runs are read only when a traced table has a
	// column of the workload.
	var sides [2][2][]run
	for trace, suffix := range []string{".jsonl", ".trace.jsonl"} {
		if trace == 1 && !slices.Contains(f.traced(), sides[0][0][0].Workload) {
			break
		}
		for i, side := range []string{"base", "change"} {
			if sides[trace][i], err = readRuns(filepath.Join(dir, side+suffix)); err != nil {
				return err
			}
		}
	}
	workload, seed := sides[0][0][0].Workload, sides[0][0][0].Seed
	for _, runs := range [][]run{sides[0][1], sides[1][0], sides[1][1]} {
		if runs != nil && (runs[0].Workload != workload || runs[0].Seed != seed) {
			return fmt.Errorf("%s: runs of %s seed %d beside runs of %s seed %d", dir, runs[0].Workload, runs[0].Seed, workload, seed)
		}
	}
	rec := f.pr(pr)
	if rec == nil {
		rec = &PR{PR: pr}
		f.PRs = append(f.PRs, rec)
		slices.SortFunc(f.PRs, func(a, b *PR) int { return a.PR - b.PR })
	}
	if label != "" {
		rec.What = label
	}
	if rec.What == "" {
		return fmt.Errorf("PR %d has no label: give -label", pr)
	}
	var added []*Point
	for _, t := range f.Tables {
		for _, c := range t.Cols {
			w, ms := t.col(c)
			if w != workload {
				continue
			}
			for _, m := range ms {
				p := &Point{PR: pr, Workload: w, Metric: m, Seed: seed}
				for i, v := range []*json.Number{&p.Parent, &p.Change} {
					x, ok := median(sides[t.Trace][i], m)
					if !ok {
						return fmt.Errorf("%s: a %s run of %s at --trace %d has no %s", dir, []string{"base", "change"}[i], w, t.Trace, m)
					}
					*v = f.format(w, m, x)
				}
				added = append(added, p)
			}
		}
	}
	if len(added) == 0 {
		return fmt.Errorf("no table has a column of %s", workload)
	}
	f.Points = slices.DeleteFunc(f.Points, func(p *Point) bool {
		return p.PR == pr && p.Workload == workload && p.Seed == seed
	})
	f.Points = append(f.Points, added...)
	slices.SortStableFunc(f.Points, func(a, b *Point) int { return a.PR - b.PR })
	if err := f.validate(); err != nil {
		return err
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	out, err := bench.WriteBlocks(string(text), kind, f.Blocks())
	if err != nil {
		return err
	}
	if err := f.Save(record); err != nil {
		return err
	}
	if err := os.WriteFile(doc, []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Printf("trajectory: PR %d: %d points of %s seed %d in %s; %s's blocks rewritten\n", pr, len(added), workload, seed, record, doc)
	return nil
}

// format prints x with as many decimals as the newest value on record of
// workload's metric, so a column keeps its precision.
func (f *File) format(workload, metric string, x float64) json.Number {
	decimals := -1
	for _, p := range f.Points {
		if p.Workload == workload && p.Metric == metric && p.Change != "" {
			_, frac, _ := strings.Cut(string(p.Change), ".")
			decimals = len(frac)
		}
	}
	return json.Number(strconv.FormatFloat(x, 'f', decimals, 64))
}
