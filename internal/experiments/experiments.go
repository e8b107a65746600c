// Package experiments contains one runner per table and figure in the
// paper's evaluation (§5), plus the discussion-section experiments (§4).
// Each runner builds the file systems fresh on simulated devices, ages
// them where the paper does, drives the paper's workload, and packs what
// the paper plots as points of one paper/v1 bench report, next to the
// layouts of the tables that print them; the claims about each figure are
// rows of bench.Claims. EXPERIMENTS.md shows what each Run prints from the
// committed report, its tables and its claims' verdicts (cmd/winebench's
// TestExperimentsPrintsTheReport holds it to that).
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/fstest"
	"repro/internal/geriatrix"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Config sizes the experiment fleet. Quick mode shrinks everything so the
// whole suite runs in seconds (used by tests and make bench-paper); full
// mode is cmd/winebench's default.
type Config struct {
	// CPUs per file system (per-CPU journals/pools).
	CPUs int
	// Quick selects reduced workload sizes.
	Quick bool
	// Seed fixes all random streams.
	Seed uint64
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.CPUs == 0 {
		c.CPUs = 8
	}
	return c
}

// deviceSize is the size of every file system's device.
func (c Config) deviceSize() int64 { return c.scale(512<<20, 2<<30) }

// scale returns q in quick mode, f otherwise.
func (c Config) scale(q, f int64) int64 {
	if c.Quick {
		return q
	}
	return f
}

// newFS builds a named file system on a fresh device.
func (c Config) newFS(name string) (vfs.FS, *pmem.Device, *sim.Ctx, error) {
	m, ok := fstest.ByName(name, c.CPUs)
	if !ok {
		return nil, nil, nil, fmt.Errorf("experiments: unknown fs %q", name)
	}
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(c.deviceSize())
	fs, err := m.Make(ctx, dev)
	return fs, dev, ctx, err
}

// age runs the Geriatrix protocol to the target utilisation (§5.1: the
// Agrawal profile, churn measured in multiples of capacity).
func (c Config) age(ctx *sim.Ctx, fs vfs.FS, util float64) (*geriatrix.Ager, error) {
	churn := 2.0
	if c.Quick {
		churn = 0.5
	}
	ager := geriatrix.New(fs, geriatrix.Config{
		TargetUtil:  util,
		ChurnFactor: churn,
		Seed:        c.Seed + 101,
	})
	_, err := ager.Run(ctx)
	return ager, err
}

// RelaxedGroup is the metadata-consistency comparison set (§5.1).
func RelaxedGroup() []string {
	return []string{"ext4-DAX", "xfs-DAX", "PMFS", "NOVA-relaxed", "SplitFS", "WineFS-relaxed"}
}

// StrictGroup is the data+metadata-consistency comparison set.
func StrictGroup() []string {
	return []string{"NOVA", "Strata", "WineFS"}
}

// MmapGroup is the Figure 6(a) set.
func MmapGroup() []string {
	return []string{"ext4-DAX", "xfs-DAX", "NOVA", "SplitFS", "PMFS", "WineFS"}
}

// agedAppGroup is MmapGroup without PMFS, which cannot be aged in
// reasonable time (§5.1): the Figure 7, Table 2 and Figure 8 set.
func agedAppGroup() []string {
	return []string{"ext4-DAX", "xfs-DAX", "NOVA", "SplitFS", "WineFS"}
}

// Run is one entry of the paper's evaluation as winebench -run names it:
// an experiment that packs its points into the paper/v1 report, and the
// tables that print them.
type Run struct {
	Name string
	// Pack runs the experiment and packs its points, each labelled
	// Figure=Name; nil when Of is set.
	Pack func(cfg Config, rep *bench.Report) error
	// Of, when set, names the run whose points Tables print instead: Table
	// 2 comes from Figure 7's runs.
	Of     string
	Tables []bench.Table
	// Alone marks an experiment whose multi-thread points interleave in
	// host order (their fields are Info): Pack runs it with no other
	// experiment beside it, so its numbers see the load they were
	// recorded under.
	Alone bool
}

// Runs is the paper's evaluation in the order winebench runs it.
var Runs = []Run{
	{Name: "fig1", Pack: Fig1, Tables: fig1Tables},
	{Name: "fig2", Pack: Fig2, Tables: fig2Tables},
	{Name: "fig3", Pack: Fig3, Tables: fig3Tables},
	{Name: "fig4", Pack: Fig4, Tables: fig4Tables},
	{Name: "fig6", Pack: Fig6, Tables: fig6Tables},
	{Name: "fig7", Pack: Fig7, Tables: fig7Tables},
	{Name: "table2", Of: "fig7", Tables: table2Tables},
	{Name: "fig8", Pack: Fig8, Tables: fig8Tables},
	{Name: "fig9", Pack: func(cfg Config, rep *bench.Report) error { return Fig9(cfg, rep, nil) }, Tables: fig9Tables, Alone: true},
	{Name: "fig10", Pack: Fig10, Tables: fig10Tables, Alone: true},
	{Name: "recovery", Pack: Recovery, Tables: recoveryTables},
	{Name: "hpc", Pack: HPC, Tables: hpcTables},
	{Name: "numa", Pack: NUMA, Tables: numaTables},
	{Name: "ablation", Pack: Ablation, Tables: ablationTables, Alone: true},
	{Name: "crashmonkey", Pack: CrashMonkey, Tables: crashMonkeyTables},
}

// packWorkers is how many experiments Pack runs at once: two run Figure
// 8, the longest by far, beside all the others.
const packWorkers = 2

// Pack runs the experiments behind runs once each, a Run with Of running
// the one it names, and returns their points as one paper/v1 report in
// the order of runs. Experiments share no state, so packWorkers of them
// run at once, each into its own report; then each Alone one runs by
// itself.
func Pack(cfg Config, runs []Run) (*bench.Report, error) {
	packs := packed(runs)
	reps := make([]*bench.Report, len(packs))
	errs := make([]error, len(packs))
	pack := func(i int) {
		reps[i] = NewReport(cfg)
		errs[i] = packs[i].Pack(cfg, reps[i])
	}
	var together, alone []int
	for i, r := range packs {
		if r.Alone {
			alone = append(alone, i)
		} else {
			together = append(together, i)
		}
	}
	(&sim.ParallelRunner{Workers: packWorkers}).Run(len(together), func(j int) { pack(together[j]) })
	for _, i := range alone {
		pack(i)
	}
	rep := NewReport(cfg)
	for i, r := range packs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, errs[i])
		}
		rep.Points = append(rep.Points, reps[i].Points...)
	}
	return rep, nil
}

// Figures returns the Figure labels a Pack of runs gives its points, in
// the order of runs: table2 selects fig7.
func Figures(runs []Run) []string {
	var figs []string
	for _, r := range packed(runs) {
		figs = append(figs, r.Name)
	}
	return figs
}

// Tables returns the tables of runs, in order: what winebench -run prints
// before bench.Finish prints the verdicts of the claims about the runs'
// figures. EXPERIMENTS.md holds both for each run alone.
func Tables(runs []Run) []bench.Table {
	var tables []bench.Table
	for _, r := range runs {
		tables = append(tables, r.Tables...)
	}
	return tables
}

// packed returns the experiments behind runs, each once, a Run with Of
// standing for the one it names.
func packed(runs []Run) []Run {
	var packs []Run
	for _, r := range runs {
		if r.Of != "" {
			r = Runs[slices.IndexFunc(Runs, func(x Run) bool { return x.Name == r.Of })]
		}
		if !slices.ContainsFunc(packs, func(x Run) bool { return x.Name == r.Name }) {
			packs = append(packs, r)
		}
	}
	return packs
}

// NewReport starts the paper/v1 report of a run of cfg.
func NewReport(cfg Config) *bench.Report {
	quick := 0.0
	if cfg.Quick {
		quick = 1
	}
	return bench.New("paper/v1", map[string]float64{
		"Quick": quick, "CPUs": float64(cfg.CPUs), "DeviceSize": float64(cfg.deviceSize()), "Seed": float64(cfg.Seed)})
}

// labels names a point of experiment fig, or the points a table shows:
// Figure=fig plus the key, value pairs in kv.
func labels(fig string, kv ...string) map[string]string {
	m := map[string]string{"Figure": fig}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// packLatency files a latency distribution's median, p90 and p99.
func packLatency(p *bench.Point, h *perf.Histogram) {
	p.Ints(map[string]int64{"MedianNS": h.Median(), "P90NS": h.Quantile(0.9), "P99NS": h.Quantile(0.99)})
}

// latencyCols prints what packLatency files.
var latencyCols = []bench.Col{
	{Head: "median", Field: "MedianNS", Fmt: "%.0f"},
	{Head: "p90", Field: "P90NS", Fmt: "%.0f"},
	{Head: "p99", Field: "P99NS", Fmt: "%.0f"},
}
