package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// TestExperimentsPrintsTheReport holds every block of EXPERIMENTS.md
// between a line "<!-- winebench ARGS -->" and a line "<!-- end -->" to
// what winebench ARGS prints from its committed report: for "-run NAME",
// the tables of that run alone from BENCH_paper.json and the verdicts of
// the claims about its figures; for "-MODE", the mode's tables from
// BENCH_MODE.json and the verdicts of the claims about it. It runs
// nothing, so -short covers it. A block that differs, a run or mode with
// no block and a block that names neither fail, and the message holds the
// block that belongs there.
func TestExperimentsPrintsTheReport(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := bench.Load("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []bench.Block
	for _, r := range experiments.Runs {
		m := paperMode(r.Name)
		want = append(want, printed("-run "+r.Name, paper, m.tables(paper), paperScope(m.name, r.Name)))
	}
	for _, m := range modes {
		rep, err := bench.Load("../../BENCH_" + m.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, printed("-"+m.name, rep, m.tables(rep), nil))
	}
	for _, p := range bench.CheckBlocks(string(doc), "winebench", want) {
		t.Errorf("EXPERIMENTS.md: %s", p)
	}
}

// printed is the block of winebench args: rep's tables, then the verdicts
// bench.Finish prints for the claims where selects, as a fenced code block.
func printed(args string, rep *bench.Report, tables []bench.Table, where map[string]string) bench.Block {
	var out strings.Builder
	rep.Print(&out, tables...)
	if vs := rep.Verdicts(where); len(vs) > 0 {
		bench.PrintVerdicts(&out, vs)
	}
	return bench.Block{Name: args, Text: "```\n" + strings.TrimPrefix(out.String(), "\n") + "```\n"}
}
