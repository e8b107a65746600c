// Command winebench runs the paper's evaluation (§4–§5) and prints each
// table and figure as text, in the same rows/series the paper reports.
//
//	winebench [-quick] [-cpus N] [-size BYTES] [-seed N] [-run fig1,fig3,...]
//	winebench -<mode> [mode flags] [-json FILE] [-check-against FILE]
//
// -run selects experiments (comma-separated from: fig1 fig2 fig3 fig4 fig6
// fig7 table2 fig8 fig9 fig10 recovery defrag hpc crashmonkey; default all).
//
// A -<mode> flag runs one regression-gated bench instead: it prints its
// table, enforces its hard gates, and ends in bench.Finish — -json writes
// the run as a BENCH report (internal/bench; everything is virtual time,
// so the file is a committable baseline) and -check-against diffs the run
// against a committed one. `winebench -h` prints one usage line per mode,
// generated from the modes table below, which is also where each mode is
// described; what each gate enforces is at the top of its file.
//
// -server has three more outputs: -trace captures every request span as a
// Chrome trace-event file loadable in chrome://tracing or Perfetto;
// -metrics-out dumps the final server counters in the Prometheus text
// format, exactly as a live winefsd /metrics scrape would render them; and
// -cached wraps each client in the page cache (incompatible with
// -check-against, since the committed server baseline is uncached).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/crashmonkey"
	"repro/internal/experiments"
	"repro/internal/fileserver"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// options carries the flag values the bench modes read.
type options struct {
	quick    bool
	cpus     int
	clients  int
	size     int64
	seed     uint64
	cached   bool   // -server: wrap clients in internal/pagecache
	trace    string // -server: Chrome trace-event file
	metrics  string // -server: Prometheus text dump
	baseline string // -check-against, for modes that must refuse it
}

// modes is the table of regression-gated benches: the flag that selects
// each, the flags it reads (for the usage line) and its help text. A mode
// prints its table, enforces its hard gates and returns its report;
// bench.Finish does the rest. With several mode flags the first listed wins.
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
	{"server", "[-quick] [-clients N] [-cpus N] [-size BYTES] [-cached] [-trace FILE] [-metrics-out FILE]",
		"serving-throughput baseline", runServerBench},
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage:\n  winebench [-quick] [-cpus N] [-size BYTES] [-seed N] [-run fig1,fig3,...]")
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
	run := flag.String("run", "all", "comma-separated experiment list")
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		selected[i] = flag.Bool(m.name, false, "run the "+m.help+" and exit")
	}
	flag.BoolVar(&o.cached, "cached", false, "-server: wrap every client in the internal/pagecache client cache")
	flag.IntVar(&o.clients, "clients", 8, "concurrent clients in -server, -cache and -replicated modes")
	jsonOut := flag.String("json", "", "bench modes: write the BENCH report as JSON to this file")
	flag.StringVar(&o.trace, "trace", "", "-server: write request spans as a Chrome trace-event file")
	flag.StringVar(&o.metrics, "metrics-out", "", "-server: dump final counters in Prometheus text format to this file")
	flag.StringVar(&o.baseline, "check-against", "", "bench modes: compare the run against this BENCH report and fail on regression")
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

	for i, m := range modes {
		if !*selected[i] {
			continue
		}
		rep, err := m.run(o)
		if err == nil {
			err = bench.Finish(rep, *jsonOut, o.baseline)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "winebench: %s: %v\n", m.name, err)
			exit(1)
		}
		return
	}

	cfg := experiments.Config{
		Quick:      o.quick,
		CPUs:       o.cpus,
		DeviceSize: o.size,
		Seed:       o.seed,
	}.Defaults()

	want := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(n)] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "winebench: %s: %v\n", name, err)
		exit(1)
	}

	if sel("fig1") {
		unaged, aged, err := experiments.Fig1(cfg)
		if err != nil {
			fail("fig1", err)
		}
		experiments.SeriesTable("Figure 1(a): un-aged mmap write bandwidth (GB/s) vs utilisation (%)",
			"util%", unaged, experiments.FmtGBs).Print(os.Stdout)
		experiments.SeriesTable("Figure 1(b): aged mmap write bandwidth (GB/s) vs utilisation (%)",
			"util%", aged, experiments.FmtGBs).Print(os.Stdout)
	}
	if sel("fig2") {
		rows, err := experiments.Fig2(cfg)
		if err != nil {
			fail("fig2", err)
		}
		t := &experiments.Table{
			Title:  "Figure 2: memory-map + write a 2MiB file (microseconds)",
			Header: []string{"config", "total", "copy", "fault+pagetable"},
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{r.Config,
				fmt.Sprintf("%.0f", r.TotalUS), fmt.Sprintf("%.0f", r.CopyUS),
				fmt.Sprintf("%.0f", r.FaultUS)})
		}
		t.Print(os.Stdout)
	}
	if sel("fig3") {
		series, err := experiments.Fig3(cfg)
		if err != nil {
			fail("fig3", err)
		}
		experiments.SeriesTable("Figure 3: free space in aligned+contiguous 2MiB regions (%) vs utilisation (%)",
			"util%", series, func(v float64) string { return fmt.Sprintf("%.1f", v) }).Print(os.Stdout)
	}
	if sel("fig4") {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			fail("fig4", err)
		}
		t := &experiments.Table{
			Title:  "Figure 4: pre-faulted random-read latency (ns)",
			Header: []string{"pages", "median", "p90", "p99"},
		}
		for _, row := range []struct {
			name string
			h    *perf.Histogram
		}{{"2MB-pages", &res.Huge}, {"4KB-pages", &res.Base}} {
			t.Rows = append(t.Rows, []string{row.name,
				fmt.Sprintf("%d", row.h.Median()),
				fmt.Sprintf("%d", row.h.Quantile(0.9)),
				fmt.Sprintf("%d", row.h.Quantile(0.99))})
		}
		t.Rows = append(t.Rows, []string{"ratio", fmt.Sprintf("%.1fx", res.MedianRatio()), "", ""})
		t.Print(os.Stdout)
	}
	if sel("fig6") {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			fail("fig6", err)
		}
		// Rows in the order the experiment ran its group, not map order.
		printFig6 := func(title string, data map[string][]float64, group []string) {
			t := &experiments.Table{Title: title,
				Header: append([]string{"fs"}, res.Patterns...)}
			for _, fs := range group {
				row := []string{fs}
				for _, v := range data[fs] {
					row = append(row, experiments.FmtGBs(v))
				}
				t.Rows = append(t.Rows, row)
			}
			t.Print(os.Stdout)
		}
		printFig6("Figure 6(a): aged mmap throughput (GB/s)", res.Mmap, experiments.MmapGroup())
		printFig6("Figure 6(b): POSIX weak (metadata consistency) throughput (GB/s)", res.Weak, experiments.RelaxedGroup())
		printFig6("Figure 6(c): POSIX strong (data consistency) throughput (GB/s)", res.Strong, experiments.StrictGroup())
	}
	var fig7res *experiments.Fig7Result
	if sel("fig7") || sel("table2") {
		var err error
		fig7res, err = experiments.Fig7(cfg)
		if err != nil {
			fail("fig7", err)
		}
	}
	if sel("fig7") {
		experiments.Fig7Table(fig7res).Print(os.Stdout)
	}
	if sel("table2") {
		experiments.Table2(fig7res).Print(os.Stdout)
	}
	if sel("fig8") {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			fail("fig8", err)
		}
		t := &experiments.Table{
			Title:  "Figure 8: P-ART lookup latency (ns), pre-faulted pool",
			Header: []string{"fs", "median", "p90", "p99"},
		}
		for _, fs := range experiments.MmapGroup() {
			h, ok := res.Hist[fs]
			if !ok {
				continue
			}
			t.Rows = append(t.Rows, []string{fs,
				fmt.Sprintf("%d", h.Median()),
				fmt.Sprintf("%d", h.Quantile(0.9)),
				fmt.Sprintf("%d", h.Quantile(0.99))})
		}
		t.Print(os.Stdout)
	}
	if sel("fig9") {
		relaxed := experiments.RelaxedGroup()
		strict := experiments.StrictGroup()
		res, err := experiments.Fig9(cfg, append(append([]string{}, relaxed...), strict...))
		if err != nil {
			fail("fig9", err)
		}
		experiments.Fig9Table(res, relaxed,
			"Figure 9(a-c): POSIX applications, metadata consistency (clean FS)").Print(os.Stdout)
		experiments.Fig9Table(res, strict,
			"Figure 9(d-f): POSIX applications, data+metadata consistency (clean FS)").Print(os.Stdout)
	}
	if sel("fig10") {
		series, err := experiments.Fig10(cfg)
		if err != nil {
			fail("fig10", err)
		}
		experiments.SeriesTable("Figure 10: scalability (kIOPS) vs threads",
			"threads", series, func(v float64) string { return fmt.Sprintf("%.0f", v) }).Print(os.Stdout)
	}
	if sel("recovery") {
		pts, err := experiments.Recovery(cfg)
		if err != nil {
			fail("recovery", err)
		}
		t := &experiments.Table{
			Title:  "§5.2: crash-recovery time vs file count (virtual time)",
			Header: []string{"files", "recovery"},
		}
		for _, p := range pts {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.Files),
				fmt.Sprintf("%.2fms", float64(p.RecoveryNS)/1e6)})
		}
		small, large, err := experiments.RecoveryDataIndependence(cfg)
		if err != nil {
			fail("recovery", err)
		}
		t.Rows = append(t.Rows, []string{"(same files, 64x data)",
			fmt.Sprintf("%.2fms vs %.2fms", float64(small)/1e6, float64(large)/1e6)})
		t.Print(os.Stdout)
	}
	if sel("defrag") {
		res, err := experiments.Defrag(cfg)
		if err != nil {
			fail("defrag", err)
		}
		t := &experiments.Table{
			Title:  "§4: background defragmentation interference",
			Header: []string{"condition", "fg mmap read GB/s"},
		}
		t.Rows = append(t.Rows,
			[]string{"alone", experiments.FmtGBs(res.BaselineGBs)},
			[]string{"with rewriter", experiments.FmtGBs(res.WithDefragGBs)},
			[]string{"slowdown", fmt.Sprintf("%.1f%% (paper: 25-40%%)", res.SlowdownPct)})
		t.Print(os.Stdout)
	}
	if sel("hpc") {
		res, err := experiments.HPC(cfg)
		if err != nil {
			fail("hpc", err)
		}
		t := &experiments.Table{
			Title:  "§4: Wang-HPC profile, aligned free space at 50% utilisation",
			Header: []string{"fs", "aligned free %"},
		}
		t.Rows = append(t.Rows,
			[]string{"ext4-DAX", fmt.Sprintf("%.0f%%", res.Ext4*100)},
			[]string{"WineFS", fmt.Sprintf("%.0f%%", res.WineFS*100)})
		t.Print(os.Stdout)
	}
	if sel("numa") {
		res, err := experiments.NUMA(cfg)
		if err != nil {
			fail("numa", err)
		}
		t := &experiments.Table{
			Title:  "§3.6: NUMA home-node policy (writer on a remote-heavy CPU)",
			Header: []string{"policy", "remote-write fraction", "write time"},
		}
		t.Rows = append(t.Rows,
			[]string{"off", fmt.Sprintf("%.0f%%", res.RemoteFracOff*100), fmt.Sprintf("%.2fms", float64(res.WriteNSOff)/1e6)},
			[]string{"on", fmt.Sprintf("%.0f%%", res.RemoteFracOn*100), fmt.Sprintf("%.2fms", float64(res.WriteNSOn)/1e6)})
		t.Print(os.Stdout)
	}
	if sel("crashmonkey") {
		total, failures := 0, 0
		for _, mode := range []vfs.ConsistencyMode{vfs.Relaxed, vfs.Strict} {
			for _, w := range append(crashmonkey.GenerateSeq1(), crashmonkey.GenerateSeq2()...) {
				w.Mode = mode
				res := crashmonkey.Run(w, crashmonkey.Config{Seed: o.seed})
				total += res.CrashStates
				failures += len(res.Failures)
				for _, f := range res.Failures {
					fmt.Fprintf(os.Stderr, "  FAIL %s (mode %d): %s\n", w.Name, mode, f)
				}
			}
		}
		fmt.Printf("\n=== §5.2: CrashMonkey ===\n  %d crash states explored, %d failures\n", total, failures)
		if failures > 0 {
			exit(1)
		}
	}
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
	clients, cpus, size, cached, seed := o.clients, o.cpus, o.size, o.cached, o.seed
	if cached && o.baseline != "" {
		return nil, fmt.Errorf("-cached changes the op mix seen by the server; it cannot be combined with -check-against")
	}
	ops := serverMixOps
	if o.quick {
		ops = serverMixOpsQuick
	}
	if size == 0 {
		size = 2 << 30
	}
	dev := pmem.New(size)
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
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
	srv := fileserver.New(fs, fileserver.Config{CPUs: cpus, Tracer: tracer})
	pl := fileserver.NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()

	results, ctxs, cstats, err := serverMixFanout(pl.Dial, clients, cpus, ops, cached, seed)
	if err != nil {
		return nil, err
	}
	srv.Shutdown()
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("serve: %w", err)
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
	st := srv.Stats()
	t := &experiments.Table{
		Title:  fmt.Sprintf("Serving baseline: %d clients x %d iterations (in-memory transport)", clients, ops),
		Header: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"client ops", fmt.Sprintf("%d", totalOps)},
		[]string{"server ops", fmt.Sprintf("%d", st.Ops)},
		[]string{"throughput", fmt.Sprintf("%.0f ops/s (virtual)", opsPerSec)},
		[]string{"latency p50", fmt.Sprintf("%dns", sum.P50NS)},
		[]string{"latency p90", fmt.Sprintf("%dns", sum.P90NS)},
		[]string{"latency p99", fmt.Sprintf("%dns", sum.P99NS)},
		[]string{"latency max", fmt.Sprintf("%dns", sum.MaxNS)},
		[]string{"sessions", fmt.Sprintf("%d", st.TotalSessions)},
		[]string{"cache hit ratio", fmtHitRatio(&clientCounters)},
		[]string{"cache replacement", fmtReplacement(sumReplacement(cstats))},
	)
	t.Print(os.Stdout)

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
	rep := bench.New("server-mix/v1", map[string]float64{
		"Clients": float64(clients), "OpsPerClient": float64(ops), "CPUs": float64(cpus), "Seed": float64(seed)})
	p := rep.Point(nil, 0)
	p.Ints(map[string]int64{"ClientOps": totalOps, "ServerOps": st.Ops, "SpanNS": spanNS,
		"Latency.Count": sum.Count, "Latency.P50NS": sum.P50NS, "Latency.P90NS": sum.P90NS,
		"Latency.P99NS": sum.P99NS, "Latency.MaxNS": sum.MaxNS})
	p.Floats(map[string]float64{"OpsPerSec": opsPerSec, "Latency.MeanNS": sum.MeanNS})
	p.AddCounters("Counters.", &st.Counters)
	// With -cached this is where the page-cache hit/miss/flush activity lands.
	p.AddCounters("ClientCounters.", &clientCounters)
	return rep, nil
}
