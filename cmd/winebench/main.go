// Command winebench runs the paper's evaluation (§4–§5) and the
// regression-gated benches. Every run packs its result into one bench
// report (internal/bench) and prints its tables from that report.
//
//	winebench [-quick] [-cpus N] [-seed N] [-run all|NAME,...] [-json FILE] [-check-against FILE]
//	winebench -<mode> [mode flags] [-json FILE] [-check-against FILE]
//
// -run selects experiments of the paper (default all) from the names
// `winebench -h` lists, generated from experiments.Runs; their points make
// one paper/v1 report.
//
// A -<mode> flag runs one regression-gated bench instead. Either way the
// run packs one report, winebench prints its tables from it, and the run
// ends in bench.Finish: it prints the verdicts of the claims about the
// report (bench.Claims) and fails the run on any that does not hold, -json
// writes the report (everything is virtual time, so the file is a
// committable baseline) and -check-against diffs the run against a
// committed one. `winebench -h` prints one usage line per mode,
// generated from the modes table below, which is also where each mode is
// described.
//
// -server has two more outputs: -trace captures every request span as a
// Chrome trace-event file loadable in chrome://tracing or Perfetto, and
// -metrics-out dumps the final server counters in the Prometheus text
// format, exactly as a live winefsd /metrics scrape would render them.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fileserver"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// options carries the flag values the bench modes read.
type options struct {
	quick    bool
	cpus     int
	clients  int
	seed     uint64
	run      string // -run: comma-separated experiment names
	trace    string // -server: Chrome trace-event file
	metrics  string // -server: Prometheus text dump
	baseline string // -check-against, for modes that must refuse it
}

// mode is one way to run winebench: the flag that selects it, the flags
// it reads (for the usage line), its help text, how it runs into a report
// and the tables that print one. A mode prints nothing itself: main prints
// its tables from the report, and bench.Finish does the rest.
type mode struct {
	name, args, help string
	run              func(o options) (*bench.Report, error)
	tables           func(rep *bench.Report) []bench.Table
}

// modes is the table of regression-gated benches. With several mode flags
// the first listed wins; with none, winebench runs the -run experiments.
// A mode's committed report is BENCH_<name>.json.
var modes = []mode{
	{"mmap", "[-quick] [-cpus N]", "zero-copy mapped-read sweep (unaged vs aged)", runMmapBench, mmapTables},
	{"tier", "[-quick] [-cpus N]", "tiered-storage working-set sweep (PM+SSD vs all-PM)", runTierBench, tierTables},
	{"defrag", "[-quick] [-cpus N]", "online-defragmenter recovery and interference bench", runDefragBench, defragTables},
	{"cache", "[-quick] [-clients N] [-cpus N]", "client page-cache effectiveness sweep", runCacheBench, cacheTables},
	{"scaling", "[-quick]", "fxmark-style scalability suite", runScalingBench, scalingTables},
	{"replicated", "[-quick] [-clients N] [-cpus N]", "replication-overhead benchmark", runReplicatedBench, replicatedTables},
	{"server", "[-quick] [-clients N] [-cpus N] [-trace FILE] [-metrics-out FILE]",
		"serving-throughput baseline", runServerBench, serverTables},
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage:\n  winebench [-quick] [-cpus N] [-seed N] [-run all|NAME,...] [-json FILE] [-check-against FILE]")
	fmt.Fprintf(w, "    NAME is one of: %s\n", strings.Join(runNames(), " "))
	for _, m := range modes {
		fmt.Fprintf(w, "  winebench -%s %s [-seed N] [-json FILE] [-check-against FILE]\n", m.name, m.args)
	}
	flag.PrintDefaults()
}

func main() {
	var o options
	flag.BoolVar(&o.quick, "quick", false, "reduced workload sizes (seconds instead of minutes)")
	flag.IntVar(&o.cpus, "cpus", 8, "logical CPUs per file system")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.run, "run", "all", "comma-separated experiment list")
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		selected[i] = flag.Bool(m.name, false, "run the "+m.help+" and exit")
	}
	flag.IntVar(&o.clients, "clients", 8, "concurrent clients in -server, -cache and -replicated modes")
	jsonOut := flag.String("json", "", "write the bench report as JSON to this file")
	flag.StringVar(&o.trace, "trace", "", "-server: write request spans as a Chrome trace-event file")
	flag.StringVar(&o.metrics, "metrics-out", "", "-server: dump final counters in Prometheus text format to this file")
	flag.StringVar(&o.baseline, "check-against", "", "compare the run against this bench report and fail on regression")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file")
	flag.Usage = usage
	flag.Parse()

	if err := startProfiles(*cpuProfile, *memProfile, *blockProfile); err != nil {
		fmt.Fprintf(os.Stderr, "winebench: profile: %v\n", err)
		exit(1)
	}
	defer stopProfiles()

	m := paperMode(o.run)
	for i := range modes {
		if *selected[i] {
			m = modes[i]
			break
		}
	}
	rep, err := m.run(o)
	if err == nil {
		rep.Print(os.Stdout, m.tables(rep)...)
		err = bench.Finish(rep, *jsonOut, o.baseline, paperScope(m.name, o.run))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "winebench: %s: %v\n", m.name, err)
		exit(1)
	}
}

// paperMode is -run list: the selected experiments pack one paper/v1
// report, which prints as their tables in experiments.Runs order;
// bench.Finish then prints the verdicts of the paper's claims about them.
func paperMode(list string) mode {
	return mode{name: "run", run: runPaper, tables: func(*bench.Report) []bench.Table {
		runs, _ := selectRuns(list) // runPaper has already resolved list
		return experiments.Tables(runs)
	}}
}

// runPaper packs the experiments -run selects.
func runPaper(o options) (*bench.Report, error) {
	runs, err := selectRuns(o.run)
	if err != nil {
		return nil, err
	}
	return experiments.Pack(experiments.Config{Quick: o.quick, CPUs: o.cpus, Seed: o.seed}.Defaults(), runs)
}

// paperScope is the share of the claims and of the baseline
// -check-against a run is held to: for -run, those of the figures it
// selected, so -run fig7 checks against a report of every figure; for a
// mode, all of them.
func paperScope(name, list string) map[string]string {
	if name != "run" {
		return nil
	}
	runs, _ := selectRuns(list) // runPaper has already resolved list
	return map[string]string{"Figure": strings.Join(experiments.Figures(runs), "|")}
}

// selectRuns resolves -run's list against experiments.Runs; an unknown
// name is an error that lists the valid ones.
func selectRuns(list string) ([]experiments.Run, error) {
	names := runNames()
	want := strings.Split(list, ",")
	for i, n := range want {
		want[i] = strings.TrimSpace(n)
		if want[i] != "all" && !slices.Contains(names, want[i]) {
			return nil, fmt.Errorf("unknown experiment %q in -run; valid names: all %s", want[i], strings.Join(names, " "))
		}
	}
	var runs []experiments.Run
	for _, r := range experiments.Runs {
		if slices.Contains(want, "all") || slices.Contains(want, r.Name) {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

func runNames() []string {
	var names []string
	for _, r := range experiments.Runs {
		names = append(names, r.Name)
	}
	return names
}

// Loop iterations per ServerMix client (-server, -replicated) and per
// fxmark thread (-scaling); the committed baselines pin these.
const (
	serverMixOps, serverMixOpsQuick = 200, 50
	scalingOps, scalingOpsQuick     = 200, 64
)

// runServerBench is winebench -server: the serving-throughput baseline.
// It boots one server over the in-memory transport, fans out `clients`
// concurrent ServerMix clients, and reports virtual ops/s plus the merged
// latency digest — the numbers ROADMAP's serving milestone tracks. For a
// given (clients, ops, cpus, seed) every work counter is meant to be
// reproducible; the span, the latency digest and LockWaitNS wobble with
// host goroutine scheduling and are toleranced in the report.
func runServerBench(o options) (*bench.Report, error) {
	clients, cpus, seed := o.clients, o.cpus, o.seed
	ops := serverMixOps
	if o.quick {
		ops = serverMixOpsQuick
	}
	var tracer *trace.Tracer
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		// The sink owns f: Tracer.Close writes the document and closes it.
		tracer = trace.New(trace.NewChrome(f))
	}
	var results []workloads.ServerMixResult
	var ctxs []*sim.Ctx
	st, err := withFreshServer(cpus, 2<<30, tracer, func(pl *fileserver.PipeListener) (err error) {
		results, ctxs, err = serverMixFanout(pl.Dial, clients, cpus, ops, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return nil, fmt.Errorf("trace close: %w", err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", o.trace)
	}

	var lat perf.Histogram
	var totalOps, spanNS int64
	var clientCounters perf.Counters
	for i, r := range results {
		lat.Merge(&r.Lat)
		totalOps += r.Ops
		if r.VirtualNS > spanNS {
			spanNS = r.VirtualNS
		}
		clientCounters.Add(ctxs[i].Counters)
	}
	opsPerSec := 0.0
	if spanNS > 0 {
		// Clients run concurrently in virtual time, so the span is the
		// slowest client, not the sum.
		opsPerSec = float64(totalOps) / (float64(spanNS) / 1e9)
	}
	sum := lat.Summary()
	rep := bench.New("server-mix/v1", map[string]float64{
		"Clients": float64(clients), "OpsPerClient": float64(ops), "CPUs": float64(cpus), "Seed": float64(seed)})
	p := rep.Point(nil, 0)
	p.Ints(map[string]int64{"ClientOps": totalOps, "ServerOps": st.Ops, "SpanNS": spanNS, "Sessions": int64(st.TotalSessions),
		"Latency.Count": sum.Count, "Latency.P50NS": sum.P50NS, "Latency.P90NS": sum.P90NS,
		"Latency.P99NS": sum.P99NS, "Latency.MaxNS": sum.MaxNS})
	p.Floats(map[string]float64{"OpsPerSec": opsPerSec, "Latency.MeanNS": sum.MeanNS})
	p.AddCounters("Counters.", &st.Counters)
	p.AddCounters("ClientCounters.", &clientCounters)
	if o.metrics != "" {
		reg := metrics.NewRegistry()
		reg.Register(metrics.CollectorFunc(func() []metrics.Family {
			fams := []metrics.Family{
				metrics.Counter("winebench_ops_total", "Wire requests the server dispatched.", float64(st.Ops)),
				metrics.SummaryFamily("winebench_request_latency_ns",
					"Client-observed request latency in virtual nanoseconds.", sum),
			}
			return append(fams, metrics.CountersFamilies("winebench_perf", &st.Counters)...)
		}))
		f, err := os.Create(o.metrics)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		fmt.Printf("wrote Prometheus dump to %s\n", o.metrics)
	}
	return rep, nil
}

// serverTables prints a -server report.
func serverTables(rep *bench.Report) []bench.Table {
	return []bench.Table{{
		Title: fmt.Sprintf("Serving baseline: %.0f clients x %.0f iterations (in-memory transport)",
			rep.Config["Clients"], rep.Config["OpsPerClient"]),
		Cols: []bench.Col{
			{Head: "client ops", Field: "ClientOps", Fmt: "%.0f"},
			{Head: "server ops", Field: "ServerOps", Fmt: "%.0f"},
			{Head: "throughput", Field: "OpsPerSec", Fmt: "%.0f ops/s (virtual)"},
			{Head: "latency p50", Field: "Latency.P50NS", Fmt: "%.0fns"},
			{Head: "latency p90", Field: "Latency.P90NS", Fmt: "%.0fns"},
			{Head: "latency p99", Field: "Latency.P99NS", Fmt: "%.0fns"},
			{Head: "latency max", Field: "Latency.MaxNS", Fmt: "%.0fns"},
			{Head: "sessions", Field: "Sessions", Fmt: "%.0f"},
		},
	}}
}
