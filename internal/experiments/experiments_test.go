package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestPaperReport runs the paper's evaluation once at the configuration
// BENCH_paper.json records and holds the run to that report's points of
// the figures it selected, so a figure that drifts, or packs no points,
// fails here, not only in make bench-paper. Then, one subtest per figure
// with claims, it holds the run to every claim about a selected figure
// (cmd/winebench's TestEveryClaimHolds holds the committed report to
// them). -short runs Figure 2 alone.
func TestPaperReport(t *testing.T) {
	runs := Runs
	if testing.Short() {
		runs = []Run{Runs[slices.IndexFunc(Runs, func(r Run) bool { return r.Name == "fig2" })]}
	}
	rep, err := Pack(Config{Quick: true, CPUs: 4, Seed: 42}.Defaults(), runs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bench.Load("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	selected := Figures(runs)
	scoped := base.Only(map[string]string{"Figure": strings.Join(selected, "|")})
	if !testing.Short() && len(scoped.Points) != len(base.Points) {
		t.Errorf("BENCH_paper.json has %d points of figures experiments.Runs does not pack", len(base.Points)-len(scoped.Points))
	}
	diffs, err := bench.Check(rep, scoped, rep.Classes())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("BENCH_paper.json: %s", d)
	}
	// Without -short it is held to every claim, so a claim about a figure
	// no Run packs fails on the run.
	var where map[string]string
	if testing.Short() {
		where = map[string]string{"Figure": strings.Join(selected, "|")}
	}
	vs := rep.Verdicts(where)
	var figs []string
	for _, v := range vs {
		if !slices.Contains(figs, v.Figure) {
			figs = append(figs, v.Figure)
		}
	}
	for _, fig := range figs {
		t.Run(fig, func(t *testing.T) {
			for _, v := range vs {
				if v.Figure == fig && !v.Holds {
					t.Errorf("run: %s: %s", v.Shows, v)
				}
			}
		})
	}
}

// TestFiguresResolveTable2 holds -run table2 to Figure 7's points, the
// ones it prints.
func TestFiguresResolveTable2(t *testing.T) {
	table2 := Runs[slices.IndexFunc(Runs, func(r Run) bool { return r.Name == "table2" })]
	fig7 := Runs[slices.IndexFunc(Runs, func(r Run) bool { return r.Name == "fig7" })]
	if got := Figures([]Run{table2, fig7}); !slices.Equal(got, []string{"fig7"}) {
		t.Errorf("Figures(table2, fig7) = %v, want [fig7]", got)
	}
}
