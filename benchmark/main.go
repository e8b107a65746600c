// Command benchmark is the repo's performance benchmark: four
// workloads over the whole stack, measured on two clocks — what the
// modelled WineFS costs its applications (virtual time) and what the
// simulation engine costs the host — with a traced mode that splits
// both by layer. README.md is the manual; BENCHMARK.json declares it
// to the driver.
//
//	go run ./benchmark -workload mmap_aged -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -selfcheck
//	go run ./benchmark -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/benchmark/tracefs"
)

const (
	defaultSeed    = 1
	heldOutSeed    = 20210926 // for claims: never used while a change is written
	defaultSeconds = 10
	// setupReps is how many times the measuring run sets the workload up:
	// setup_s is the median, as the driver's contract asks, and the
	// measured phase uses the last instance. Every other pass sets up once.
	setupReps = 3
	// traceDivisor: the traced run issues the same streams at a tenth of
	// the operations.
	traceDivisor = 10
	// traceFileSpans caps the spans written to the trace file; the
	// per-layer metrics are computed from all of them.
	traceFileSpans = 100_000
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: mmap_aged, posix_aged, srv_cached or maint_tiered")
		seed      = flag.Uint64("seed", defaultSeed, fmt.Sprintf("seed every input is derived from (%d is held out for claims: never use it while writing a change)", heldOutSeed))
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured phase: the operation count is this times the workload's calibrated rate")
		trace     = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
		out       = flag.String("out", "", "append the result line to this file (input of -compare)")
		selfcheck = flag.Bool("selfcheck", false, "check determinism at 1/20 size and run-to-run agreement at full size")
		compare   = flag.Bool("compare", false, "compare two result files: -compare before.jsonl after.jsonl")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := selfCheck(os.Stdout, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		def := findWorkload(*name)
		if def == nil || *seconds < 1 || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
			flag.Usage()
			os.Exit(2)
		}
		res, err := runWorkload(def, *seed, int64(*seconds)*def.opsPerSecond, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if err := res.print(os.Stdout, *out); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports; its JSON form is the last
// line of standard output.
type result struct {
	Workload  string           `json:"-"`
	Seed      uint64           `json:"-"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	defs     []metric
	samples  int64
	notes    []string // printed after the metrics: the traced run's span table
	problems []string
}

func newResult(def *workloadDef, seed uint64, defs []metric) *result {
	return &result{Workload: def.name, Seed: seed, Metrics: map[string]value{}, defs: defs}
}

func (r *result) set(name string, v float64) {
	for _, m := range r.defs {
		if m.name == name {
			r.Metrics[name] = value{Value: v, Unit: m.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// print writes the metrics by name with their units, anything that
// made the run incorrect, and the contract's JSON line last.
func (r *result) print(w *os.File, outFile string) error {
	fmt.Fprintf(w, "workload %s seed %d: %d operations attempted, %d failed; latency percentiles from %d exact samples\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.samples)
	for _, m := range r.defs {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %18.6f %s\n", m.name, v.Value, v.Unit)
		}
	}
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  INCORRECT:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if outFile != "" {
		rec, err := json.Marshal(struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
			*result
		}{r.Workload, r.Seed, r})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostSnap is the host's account at one instant.
type hostSnap struct {
	at        time.Time
	mallocs   uint64
	numGC     uint32
	heapInuse uint64
	cpuNS     int64   // user+system CPU of the process (getrusage)
	gcCPUSec  float64 // CPU the collector has used
	allCPUSec float64 // CPU the runtime accounts for in total
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return hostSnap{
		at: time.Now(), mallocs: ms.Mallocs, numGC: ms.NumGC, heapInuse: ms.HeapInuse,
		cpuNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		gcCPUSec: s[0].Value.Float64(), allCPUSec: s[1].Value.Float64(),
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// outcome is everything one set-up-and-measure pass yields.
type outcome struct {
	st       *stack
	setupNS  float64
	ops      int64
	failed   int64
	firstErr error
	lat      *latHist
	kops     float64 // per-client batch medians, summed
	clientNS int64   // host time inside the clients' measured loops, summed
	makespan int64   // virtual ns of the slowest client
	finalVNS int64
	user     int64
	cnt      counters // every thread's counters over the measured phase
	cache    cacheStats
	rpcs     int64
	h0, h1   hostSnap
	sum      tracefs.Summary // of the measured phase, when it was traced
	// liveHeapMiB is the Go heap still reachable when the measured phase
	// ends, after a forced collection, minus the bytes that back the PM
	// device: the file system's DRAM indexes, the caches, the slow tier's
	// store, and the driver's own oracle and samples. The backing is left
	// out because how much of an aged image stays backed is a property of
	// the seed (it spreads 40% across seeds), and it is reported on its
	// own as pmem.host_mb; the peak RSS is left out because it is set by
	// when the collector last ran.
	liveHeapMiB float64
	fin         final
}

// timedSetup sets the workload up once and returns the instance with
// the host time it took. The heap goes back to the operating system
// first, so that every set-up pays alike for faulting its memory in.
func timedSetup(def *workloadDef, p params) (*stack, float64, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	st, err := def.setup(p)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return st, float64(time.Since(t0)), nil
}

// pass sets the workload up, measures p.ops operations on it, and
// finishes it: coverage probe, audit, unmount, offline check.
func pass(def *workloadDef, p params) (*outcome, error) {
	st, setupNS, err := timedSetup(def, p)
	if err != nil {
		return nil, err
	}
	o := &outcome{st: st, setupNS: setupNS}
	runtime.GC()

	c0, cache0 := st.counters(), st.cacheStats(cacheStats{})
	var rpc0 int64
	if st.server != nil {
		rpc0 = st.server.Stats().Ops
	}
	if p.tr != nil {
		p.tr.Reset()
	}
	o.h0 = snapHost()
	st.measure(p.ops)
	o.h1 = snapHost()
	if p.tr != nil {
		o.sum = p.tr.Analyze()
		p.tr.Stop()
	}
	o.cnt = st.counters()
	o.cnt.Sub(&c0)
	o.cache = st.cacheStats(cache0)
	if st.server != nil {
		o.rpcs = st.server.Stats().Ops - rpc0
	}

	o.lat = newLatHist()
	for _, c := range st.clients {
		o.ops += c.ops
		o.failed += c.failed
		if o.firstErr == nil {
			o.firstErr = c.firstErr
		}
		o.lat.merge(c.lat)
		o.kops += medianKops(c.batches)
		for _, b := range c.batches {
			o.clientNS += b.hostNS
		}
		if d := c.ctx.Now() - c.startNS; d > o.makespan {
			o.makespan = d
		}
		if c.ctx.Now() > o.finalVNS {
			o.finalVNS = c.ctx.Now()
		}
		o.user += c.userBytes
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.liveHeapMiB = float64(int64(ms.HeapAlloc)-st.dev.HostBytes()) / (1 << 20)

	if o.fin, err = st.finish(); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	st.release()
	return o, nil
}

// countersCRC is the exactness witness over a counter set: any counter that
// moves moves it.
func countersCRC(c *counters) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, f := range c.Fields() {
		h.Write([]byte(f.Name))
		for i := range b {
			b[i] = byte(uint64(f.Value) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum32()
}

// account fills in what every result carries: counts and what made
// the run incorrect.
func (r *result) account(o *outcome) {
	r.Attempted += o.ops
	r.Failed += o.failed
	r.samples = o.lat.n
	if o.firstErr != nil {
		r.problems = append(r.problems, "first failed operation: "+o.firstErr.Error())
	}
	r.problems = append(r.problems, o.fin.problems...)
}

// runWorkload is one invocation: the measuring run, or the traced one.
func runWorkload(def *workloadDef, seed uint64, ops int64, traced bool) (*result, error) {
	if traced {
		return runTraced(def, seed, ops/traceDivisor)
	}
	p := params{seed: seed, ops: ops}
	setups := make([]float64, 0, setupReps)
	for len(setups) < setupReps-1 {
		st, ns, err := timedSetup(def, p)
		if err != nil {
			return nil, err
		}
		if err := st.discard(); err != nil {
			return nil, err
		}
		setups = append(setups, ns)
	}
	o, err := pass(def, p)
	if err != nil {
		return nil, err
	}
	setups = append(setups, o.setupNS)
	r := newResult(def, seed, endToEnd)
	r.account(o)
	p50, err := o.lat.quantile(0.50)
	if err != nil {
		return nil, fmt.Errorf("p50: %w", err)
	}
	p99, err := o.lat.quantile(0.99)
	if err != nil {
		return nil, fmt.Errorf("p99: %w", err)
	}
	r.set("setup_s", median(setups)/1e9)
	r.set("host_kops_per_s", o.kops)
	r.set("host_allocs_per_op", float64(o.h1.mallocs-o.h0.mallocs)/float64(o.ops))
	r.set("sim_kops_per_vsec", float64(o.ops)/float64(o.makespan)*1e6)
	r.set("sim_lat_p50_ns", float64(p50))
	r.set("sim_lat_p99_ns", float64(p99))
	r.set("sim_pm_write_amp", float64(o.cnt.PMWriteBytes+o.cnt.SlowWriteBytes)/float64(o.user))
	r.set("sim_huge_coverage_pct", o.fin.hugeCoveragePct)
	r.set("sim_aligned_free_pct", o.fin.alignedFreePct)
	r.set("host_heap_live_mb", o.liveHeapMiB)
	if st := o.st; st.maint != nil {
		c := &o.cnt
		r.notes = append(r.notes, fmt.Sprintf(
			"maintenance over the measured phase: %d steps, %d of them useful; defrag scanned %d chunks, migrated %d blocks, recovered %d hugepages, skipped %d busy; tier promoted %d, demoted %d blocks; %d files rewritten; %d vns throttled; %.1f%% of file operations PM-resident",
			st.maintSteps, st.maintUseful, c.DefragChunksScanned, c.DefragMigratedBlocks, c.DefragRecovered2M, c.DefragSkippedBusy,
			c.TierPromotedBlocks, c.TierDemotedBlocks, c.Rewrites, st.maintThrottled, pct(st.residentOps, st.dataOps)))
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	return r, nil
}

// runTraced makes the per-layer run: the same streams traced, then
// untraced — the reference the tracing overhead is taken against, and
// the witness that tracing leaves the virtual clock alone — then, where
// there is a maintenance thread, once more with it idle. A set-up that
// is thrown away goes first, so that no pass pays alone for faulting in
// the host memory the device chunk pool then recycles.
func runTraced(def *workloadDef, seed uint64, ops int64) (*result, error) {
	warm, _, err := timedSetup(def, params{seed: seed, ops: ops})
	if err != nil {
		return nil, err
	}
	if err := warm.discard(); err != nil {
		return nil, err
	}
	tr := tracefs.New(int(float64(ops)*def.spansPerOp) + 200_000)
	o, err := pass(def, params{seed: seed, ops: ops, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	ref, err := pass(def, params{seed: seed, ops: ops})
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	others := []*outcome{ref}
	r := newResult(def, seed, perLayer)
	r.account(o)
	if len(o.st.clients) == 1 && (o.finalVNS != ref.finalVNS || countersCRC(&o.cnt) != countersCRC(&ref.cnt)) {
		r.problems = append(r.problems, fmt.Sprintf(
			"tracing moved the simulation: final virtual time %d traced vs %d untraced, counters crc %08x vs %08x",
			o.finalVNS, ref.finalVNS, countersCRC(&o.cnt), countersCRC(&ref.cnt)))
	}
	if d := tr.Dropped(); d > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d spans did not fit the tracer", d))
	}
	if err := layerMetrics(r, o, ref, tr); err != nil {
		return nil, err
	}
	if o.st.maint != nil {
		idle, err := pass(def, params{seed: seed, ops: ops, maintOff: true})
		if err != nil {
			return nil, fmt.Errorf("maintenance-off replay: %w", err)
		}
		r.set("maint.fg_slowdown_pct", 100*(float64(ref.makespan)/float64(idle.makespan)-1))
		others = append(others, idle)
	}
	for _, x := range others {
		if x.failed > 0 || len(x.fin.problems) > 0 {
			r.problems = append(r.problems, fmt.Sprintf("an untraced pass was not clean: %d failed (first: %v), %v", x.failed, x.firstErr, x.fin.problems))
		}
	}
	probes, err := runProbes()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.set(name, probes[name])
	}

	f, err := os.Create("benchmark." + def.name + ".trace.json")
	if err != nil {
		return nil, err
	}
	if err := tr.WriteJSON(f, def.name, traceFileSpans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	return r, nil
}
