package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestPaperReport runs the paper's evaluation once at the configuration
// BENCH_paper.json records and holds the run to that report's points of
// the figures it selected, so a figure that drifts, or packs no points,
// fails here, not only in make bench-paper. Then, one subtest per figure,
// it holds every claim on the committed report and, for a selected
// figure, on the run. -short runs Figure 2 alone.
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
	var figs []string
	for _, c := range Claims {
		if !slices.Contains(figs, c.Figure) {
			figs = append(figs, c.Figure)
		}
	}
	for _, fig := range figs {
		t.Run(fig, func(t *testing.T) {
			for _, c := range Claims {
				if c.Figure != fig {
					continue
				}
				if v := c.Check(base); v.Err != nil || !v.Holds {
					t.Errorf("BENCH_paper.json: %s: %s", c.Shows, v)
				}
				// Without -short every figure is selected, so a claim about
				// a figure no Run packs fails on the run.
				if testing.Short() && !slices.Contains(selected, fig) {
					continue
				}
				if v := c.Check(rep); v.Err != nil || !v.Holds {
					t.Errorf("run: %s: %s", c.Shows, v)
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

// TestExperimentsPrintsTheReport holds the paper's sections of
// EXPERIMENTS.md to what the committed BENCH_paper.json prints. Each Run
// has one block there, a fenced code block between a line
// "<!-- winebench -run NAME -->" and a line "<!-- end -->", holding the
// run's tables and then the verdicts of the claims about its figure,
// as winebench -run prints them. It packs nothing, so -short runs it
// too. A block that differs, a run with no block and a block that names
// no run fail, and the message holds the block that belongs there.
func TestExperimentsPrintsTheReport(t *testing.T) {
	base, err := bench.Load("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, end = "\n<!-- winebench -run ", "<!-- end -->\n"
	blocks := map[string]string{}
	for rest := string(doc); ; {
		_, marked, ok := strings.Cut(rest, open)
		if !ok {
			break
		}
		name, body, _ := strings.Cut(marked, " -->\n")
		if body, rest, ok = strings.Cut(body, end); !ok {
			t.Fatalf("EXPERIMENTS.md: the block of -run %s has no end marker", name)
		}
		if _, dup := blocks[name]; dup {
			t.Errorf("EXPERIMENTS.md has two blocks of -run %s", name)
		}
		blocks[name] = body
	}
	for _, r := range Runs {
		var out strings.Builder
		base.Print(&out, r.Tables...)
		if vs := Verdicts(base, []string{r.Name}); len(vs) > 0 {
			PrintVerdicts(&out, vs)
		}
		want := "```\n" + strings.TrimPrefix(out.String(), "\n") + "```\n"
		block := open[1:] + r.Name + " -->\n" + want + end
		got, ok := blocks[r.Name]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md has no block of -run %s; its section should hold:\n%s", r.Name, block)
		case got != want:
			t.Errorf("EXPERIMENTS.md's block of -run %s is not what BENCH_paper.json prints; it should read:\n%s", r.Name, block)
		}
		delete(blocks, r.Name)
	}
	for name := range blocks {
		t.Errorf("EXPERIMENTS.md has a block of -run %s, which no experiments.Runs entry is", name)
	}
}
