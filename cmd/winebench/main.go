// Command winebench runs the paper's evaluation (§4–§5) and the
// regression-gated benches. Every run packs its result into one bench
// report (internal/bench) and prints its tables from that report.
//
//	winebench [-quick] [-cpus N] [-size BYTES] [-seed N] [-run all|NAME,...] [-json FILE] [-check-against FILE]
//	winebench -<mode> [mode flags] [-json FILE] [-check-against FILE]
//
// -run selects experiments of the paper (default all) from the names
// `winebench -h` lists, generated from experiments.Runs; their points make
// one paper/v1 report.
//
// A -<mode> flag runs one regression-gated bench instead: it prints its
// table and enforces its hard gates. Either way the run ends in
// bench.Finish — -json writes the report (everything is virtual time, so
// the file is a committable baseline) and -check-against diffs the run
// against a committed one. `winebench -h` prints one usage line per mode,
// generated from the modes table below, which is also where each mode is
// described; what each gate enforces is at the top of its file.
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
	size     int64
	seed     uint64
	run      string // -run: comma-separated experiment names
	trace    string // -server: Chrome trace-event file
	metrics  string // -server: Prometheus text dump
	baseline string // -check-against, for modes that must refuse it
}

// modes is the table of regression-gated benches: the flag that selects
// each, the flags it reads (for the usage line) and its help text. A mode
// prints its table, enforces its hard gates and returns its report;
// bench.Finish does the rest. With several mode flags the first listed
// wins; with none, winebench runs the -run experiments.
var modes = []struct {
	name, args, help string
	run              func(o options) (*bench.Report, error)
}{
	{"mmap", "[-quick] [-cpus N]", "zero-copy mapped-read sweep (unaged vs aged)", runMmapBench},
	{"tier", "[-quick] [-cpus N]", "tiered-storage working-set sweep (PM+SSD vs all-PM)", runTierBench},
	{"defrag", "[-quick] [-cpus N]", "online-defragmenter recovery and interference bench", runDefragBench},
	{"cache", "[-quick] [-clients N] [-cpus N]", "client page-cache effectiveness sweep", runCacheBench},
	{"scaling", "[-quick]", "fxmark-style scalability suite", runScalingBench},
	{"replicated", "[-quick] [-clients N] [-cpus N] [-size BYTES]", "replication-overhead benchmark", runReplicatedBench},
	{"server", "[-quick] [-clients N] [-cpus N] [-size BYTES] [-trace FILE] [-metrics-out FILE]",
		"serving-throughput baseline", runServerBench},
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage:\n  winebench [-quick] [-cpus N] [-size BYTES] [-seed N] [-run all|NAME,...] [-json FILE] [-check-against FILE]")
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
	flag.Int64Var(&o.size, "size", 0, "device size in bytes (0 = default)")
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

	name, run := "run", runPaper
	for i, m := range modes {
		if *selected[i] {
			name, run = m.name, m.run
			break
		}
	}
	rep, err := run(o)
	if err == nil {
		err = bench.Finish(rep, *jsonOut, o.baseline, paperScope(name, o.run))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "winebench: %s: %v\n", name, err)
		exit(1)
	}
}

// runPaper is -run: the selected experiments pack one paper/v1 report,
// which prints as their tables in experiments.Runs order and then as the
// verdicts of the paper's claims about them, through experiments.Print.
func runPaper(o options) (*bench.Report, error) {
	runs, err := selectRuns(o.run)
	if err != nil {
		return nil, err
	}
	cfg := experiments.Config{Quick: o.quick, CPUs: o.cpus, DeviceSize: o.size, Seed: o.seed}.Defaults()
	rep, err := experiments.Pack(cfg, runs)
	if err != nil {
		return nil, err
	}
	experiments.Print(os.Stdout, rep, runs)
	return rep, nil
}

// paperScope is the share of the baseline -check-against holds a run to:
// for -run, the points of the figures it selected, so -run fig7 checks
// against a report of every figure; for a mode, all of them.
func paperScope(mode, list string) map[string]string {
	if mode != "run" {
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
	clients, cpus, size, seed := o.clients, o.cpus, o.size, o.seed
	ops := serverMixOps
	if o.quick {
		ops = serverMixOpsQuick
	}
	if size == 0 {
		size = 2 << 30
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
	st, err := withFreshServer(cpus, size, tracer, func(pl *fileserver.PipeListener) (err error) {
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
	rep.Print(os.Stdout, bench.Table{
		Title: fmt.Sprintf("Serving baseline: %d clients x %d iterations (in-memory transport)", clients, ops),
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
	})

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
