// Command winefsd serves a simulated persistent-memory device image over
// TCP using the fileserver wire protocol, turning the in-process WineFS
// reproduction into a multi-client network file server.
//
// Usage:
//
//	winefsd [-img wine.img] [-size 1g] [-cpus 8] [-relaxed]
//	        [-addr 127.0.0.1:7070] [-stats 127.0.0.1:7071]
//	        [-replicas host:port,...] [-replica-of primary] [-epoch 1]
//	        [-maint-budget 0.1] [-slow-size 4g]
//
// Tiering: -slow-size attaches a simulated slow (SSD) tier behind the PM
// device. The tier policy's marks are winefs constants: new data spills to
// the slow tier once PM is 90% used; a tier-migration pass of the
// background maintenance that finds PM past that demotes the coldest PM
// data until PM is 80% used, and promotes slow extents that turned hot
// (DESIGN.md §14).
//
// Replication: a primary started with -replicas streams its committed
// write log to each listed replica daemon; replicas are winefsd processes
// started with -replica-of, which serve the replication protocol on -addr
// instead of the client protocol. -epoch sets the primary epoch announced
// to replicas (bump it when restarting a promoted replica as the new
// primary so stale primaries are fenced). -sync-repl makes every
// acknowledged write wait for replica durability; without it the stream
// is asynchronous and lag shows up in /metrics as cluster_replica_lag.
//
// With -img the image (created by mkfs) is loaded, mounted and saved back
// on clean shutdown; without it a fresh volatile device of -size bytes is
// formatted. -stats starts an HTTP endpoint whose /stats page reports the
// server-wide aggregate of every session's perf counters, the request
// latency digest and the mount's degradation state as JSON; the same
// listener serves /metrics in the Prometheus text exposition format, both
// sampled from the identical fileserver.Server.Stats() snapshot path so the
// two views can never drift apart.
//
// -trace FILE streams every request span (with its virtual-time breakdown)
// as JSON Lines; -slow NS additionally logs any request slower than NS
// virtual nanoseconds to stderr, one line per op.
//
// winefsd -smoke runs the self-contained smoke test: boot a server on a
// loopback port, run a small multi-client workload through
// fileserver.Client over real TCP, then verify the stats endpoint. It
// exits non-zero on any failure (the make serve-smoke target).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/defrag"
	"repro/internal/fileserver"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// statsPage is the JSON document /stats serves.
type statsPage struct {
	FS       string
	Mode     string
	Sessions struct {
		Active int
		Total  uint64
	}
	OpenHandles int
	Ops         int64
	Latency     perf.LatencySummary
	Counters    perf.Counters
	Degraded    bool
	Reason      string `json:",omitempty"`
}

func buildStats(srv *fileserver.Server) statsPage {
	st := srv.Stats()
	var p statsPage
	fs := srv.FS()
	p.FS = fs.Name()
	p.Mode = fs.Mode().String()
	p.Sessions.Active = st.ActiveSessions
	p.Sessions.Total = st.TotalSessions
	p.OpenHandles = st.OpenHandles
	p.Ops = st.Ops
	p.Latency = st.Lat.Summary()
	p.Counters = st.Counters
	if d, ok := fs.(interface{ Degraded() (string, bool) }); ok {
		p.Reason, p.Degraded = d.Degraded()
	}
	return p
}

// newRegistry builds the winefsd metric registry: one collector that samples
// the server at scrape time. It reads through the same Stats() path as the
// /stats JSON page, so there is no second bookkeeping that could drift from
// the in-process perf counters.
func newRegistry(srv *fileserver.Server) *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Register(metrics.CollectorFunc(func() []metrics.Family {
		st := srv.Stats()
		degraded := 0.0
		if d, ok := srv.FS().(interface{ Degraded() (string, bool) }); ok {
			if _, bad := d.Degraded(); bad {
				degraded = 1
			}
		}
		fams := []metrics.Family{
			metrics.Gauge("winefsd_sessions_active", "Client sessions currently attached.", float64(st.ActiveSessions)),
			metrics.Counter("winefsd_sessions_total", "Client sessions ever attached.", float64(st.TotalSessions)),
			metrics.Gauge("winefsd_open_handles", "File handles currently open across sessions.", float64(st.OpenHandles)),
			metrics.Counter("winefsd_ops_total", "Wire requests dispatched, including hello/detach.", float64(st.Ops)),
			metrics.Gauge("winefsd_degraded", "1 when the mount fell back to read-only.", degraded),
			metrics.SummaryFamily("winefsd_request_latency_ns",
				"Per-request server-side latency in virtual nanoseconds.", st.Lat.Summary()),
		}
		// Canonical vmm_* names for the mapping subsystem (maps, hugepage
		// vs base-page faults, promotions, msyncs, CoW breaks) alongside
		// the prefixed full dump below.
		fams = append(fams, metrics.SubsystemFamilies("Zero-copy mapping subsystem", &st.Counters, "VMM")...)
		return append(fams, metrics.CountersFamilies("winefsd_perf", &st.Counters)...)
	}))
	return reg
}

// serveStats starts the HTTP stats endpoint on addr, serving /stats (JSON)
// and /metrics (Prometheus text); it returns the bound address (addr may
// carry port 0). Extra collectors (the replication stats of a primary)
// join the same registry and scrape path.
func serveStats(srv *fileserver.Server, addr string, extra ...metrics.Collector) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	reg := newRegistry(srv)
	for _, c := range extra {
		reg.Register(c)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(buildStats(srv))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	go http.Serve(l, mux)
	return l.Addr().String(), nil
}

// buildTracer wires the -trace / -slow flags into a trace.Tracer (nil when
// both are off). The returned closer flushes the trace file.
func buildTracer(traceOut string, slowNS int64) (*trace.Tracer, func(), error) {
	if traceOut == "" && slowNS <= 0 {
		return nil, func() {}, nil
	}
	var sink trace.Sink = trace.NopSink{}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, nil, err
		}
		// The sink owns f: Tracer.Close flushes and closes it.
		sink = trace.NewJSONL(f)
	}
	tr := trace.New(sink)
	if slowNS > 0 {
		tr.SetSlowLog(os.Stderr, slowNS)
	}
	return tr, func() { tr.Close() }, nil
}

func main() {
	img := flag.String("img", "", "device image to serve (empty: fresh volatile device)")
	size := flag.String("size", "1g", "device size when no image is given (k/m/g suffixes)")
	cpus := flag.Int("cpus", 8, "simulated CPUs sessions are pinned across")
	relaxed := flag.Bool("relaxed", false, "metadata-only consistency mode")
	addr := flag.String("addr", "127.0.0.1:7070", "serving address")
	stats := flag.String("stats", "", "HTTP stats endpoint address (empty: disabled)")
	traceOut := flag.String("trace", "", "stream request spans as JSON Lines to this file")
	slow := flag.Int64("slow", 0, "log requests slower than this many virtual ns to stderr")
	smoke := flag.Bool("smoke", false, "run the loopback smoke test and exit")
	replicas := flag.String("replicas", "", "comma-separated replica addresses to stream the write log to")
	replicaOf := flag.String("replica-of", "", "run as a replica of this primary: apply its stream on -addr instead of serving clients")
	epoch := flag.Uint64("epoch", 1, "primary epoch announced to replicas (bump after promoting a replica)")
	syncRepl := flag.Bool("sync-repl", false, "acknowledged writes wait for replica durability")
	maintBudget := flag.Float64("maint-budget", 0.1, "background maintenance (defrag, rewrite, tier migration) duty-cycle fraction of device bandwidth (0 = off, 1 = unthrottled)")
	slowSize := flag.String("slow-size", "", "attach a simulated slow (SSD) tier of this size; new data spills to it when PM fills (empty: untiered)")
	flag.Parse()

	if *replicaOf != "" && *replicas != "" {
		fmt.Fprintln(os.Stderr, "winefsd: -replica-of and -replicas are mutually exclusive")
		os.Exit(2)
	}
	if *replicaOf != "" {
		if err := runReplica(*addr, *img, *size, *replicaOf); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: replica: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *smoke {
		if err := runSmoke(*cpus); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("winefsd: smoke OK")
		return
	}

	mode := vfs.Strict
	if *relaxed {
		mode = vfs.Relaxed
	}

	// Tiered storage: -slow-size attaches a simulated SSD behind the PM
	// device. The slow tier is volatile between runs (its pool is rebuilt
	// from the extent scan at every mount), so a tiered -img daemon must be
	// restarted with the same -slow-size.
	var topts *winefs.TierOptions
	var slowDev *tier.SlowDevice
	if *slowSize != "" {
		bytes, perr := pmem.ParseSize(*slowSize)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "winefsd: bad slow-size: %v\n", perr)
			os.Exit(2)
		}
		slowDev = tier.NewSlow(tier.DefaultSlowConfig(bytes))
		topts = &winefs.TierOptions{Slow: slowDev}
	}

	ctx := sim.NewCtx(1, 0)
	var dev *pmem.Device
	var fs *winefs.FS
	var err error
	if *img != "" {
		if dev, err = pmem.Load(*img); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: %v\n", err)
			os.Exit(1)
		}
		if fs, err = winefs.Mount(ctx, dev, winefs.Options{Mode: mode, Tier: topts}); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: mount %s: %v\n", *img, err)
			os.Exit(1)
		}
	} else {
		bytes, perr := pmem.ParseSize(*size)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "winefsd: bad size: %v\n", perr)
			os.Exit(2)
		}
		dev = pmem.New(bytes)
		if fs, err = winefs.Mkfs(ctx, dev, winefs.Options{CPUs: *cpus, Mode: mode, Tier: topts}); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: mkfs: %v\n", err)
			os.Exit(1)
		}
	}
	if reason, degraded := fs.Degraded(); degraded {
		fmt.Fprintf(os.Stderr, "winefsd: WARNING: serving read-only (degraded): %s\n", reason)
	}

	tracer, closeTracer, err := buildTracer(*traceOut, *slow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "winefsd: trace: %v\n", err)
		os.Exit(1)
	}

	// Replication: a primary streams its write log to each -replicas
	// address (NewPrimary attaches it before anything is served, so no
	// client write escapes the log).
	var targets []cluster.Target
	for _, raddr := range strings.Split(*replicas, ",") {
		if target := strings.TrimSpace(raddr); target != "" {
			targets = append(targets, cluster.Target{Name: target, Dial: func() (fileserver.Conn, error) {
				return fileserver.DialTCP(target)
			}})
		}
	}
	srv, repl := cluster.NewPrimary(fs, *epoch,
		fileserver.Config{CPUs: *cpus, Tracer: tracer},
		cluster.ReplicatorConfig{Sync: *syncRepl, Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "winefsd: repl: "+format+"\n", args...)
		}}, targets)
	if repl != nil {
		fmt.Printf("winefsd: replicating to %s (epoch %d, sync=%v)\n", *replicas, *epoch, *syncRepl)
	}
	l, err := fileserver.ListenTCP(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "winefsd: listen: %v\n", err)
		os.Exit(1)
	}

	// Background maintenance (§3.5): one goroutine steps one runner — a
	// defrag pass, the rewrite-queue drain, and on a tiered mount a
	// tier-migration pass — on its own simulated thread, pinned to the last
	// CPU. Each round interleaves with client operations through the
	// ordinary lock table; the runner's one pacer bounds the thread's share
	// of device bandwidth, whichever mover is copying.
	maint := defrag.New(fs, defrag.Config{Budget: *maintBudget})
	var maintStop, maintDone chan struct{}
	if *maintBudget > 0 {
		maintStop, maintDone = make(chan struct{}), make(chan struct{})
		mctx := sim.NewCtx(3, *cpus-1)
		go func() {
			defer close(maintDone)
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-maintStop:
					return
				case <-tick.C:
					if _, err := maint.Step(mctx); err != nil {
						// Read-only (degraded) or unmounted: nothing left
						// for maintenance to do.
						return
					}
				}
			}
		}()
		fmt.Printf("winefsd: background maintenance enabled (budget %.0f%%)\n", 100**maintBudget)
	}
	if slowDev != nil {
		fmt.Printf("winefsd: slow tier %s attached\n", *slowSize)
	}

	if *stats != "" {
		var extra []metrics.Collector
		if repl != nil {
			extra = append(extra, cluster.MetricsCollector(repl))
		}
		extra = append(extra, metrics.CollectorFunc(func() []metrics.Family {
			c := maint.Counters()
			return metrics.SubsystemFamilies("Online defragmenter", &c, "Defrag")
		}))
		if slowDev != nil {
			extra = append(extra, metrics.CollectorFunc(func() []metrics.Family {
				// Session counters carry the allocation-spill and slow-device
				// traffic; the maintenance thread's carry the migrations.
				// Aggregate both so tier_* and alloc_spill_* tell the whole
				// story at one scrape point.
				st := srv.Stats()
				c := st.Counters
				mc := maint.Counters()
				c.Add(&mc)
				ts, _ := fs.TierStats()
				return append(metrics.SubsystemFamilies("Tiered storage", &c, "Tier", "Slow", "AllocSpill"),
					metrics.Gauge("tier_pm_free_blocks", "Free 4KiB blocks on the PM tier.", float64(ts.PMFreeBlocks)),
					metrics.Gauge("tier_pm_total_blocks", "Total data blocks on the PM tier.", float64(ts.PMTotalBlocks)),
					metrics.Gauge("tier_slow_free_blocks", "Free 4KiB blocks on the slow tier.", float64(ts.SlowFreeBlocks)),
					metrics.Gauge("tier_slow_total_blocks", "Total blocks on the slow tier.", float64(ts.SlowTotalBlocks)))
			}))
		}
		bound, serr := serveStats(srv, *stats, extra...)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "winefsd: stats listen: %v\n", serr)
			os.Exit(1)
		}
		fmt.Printf("winefsd: stats on http://%s/stats\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// Serve returns nil once Shutdown drains, which can happen before the
	// handler has unmounted and saved — main must wait for shutdownDone or
	// the process exits with the image unsaved.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-sig
		fmt.Println("winefsd: draining...")
		// Bounded drain: a wedged client must not hold the process hostage
		// past the lease grace period.
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.ShutdownCtx(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: drain: %v\n", err)
		}
		cancel()
		if repl != nil {
			repl.Close()
		}
		if maintStop != nil {
			close(maintStop)
			<-maintDone
		}
		closeTracer()
		uctx := sim.NewCtx(2, 0)
		if err := fs.Unmount(uctx); err != nil {
			fmt.Fprintf(os.Stderr, "winefsd: unmount: %v\n", err)
		}
		if slowDev != nil {
			slowDev.Release()
		}
		if *img != "" {
			if err := dev.Save(*img); err != nil {
				fmt.Fprintf(os.Stderr, "winefsd: save %s: %v\n", *img, err)
				os.Exit(1)
			}
			fmt.Printf("winefsd: saved %s\n", *img)
		}
	}()

	fmt.Printf("winefsd: serving %s (%s) on %s\n", fs.Name(), fs.Mode(), l.Addr())
	if err := srv.Serve(l); err != nil {
		fmt.Fprintf(os.Stderr, "winefsd: serve: %v\n", err)
		os.Exit(1)
	}
	<-shutdownDone
}

// runReplica runs the daemon as a passive replica: it serves the
// replication protocol on addr, applying the primary's stream (with CRC
// checking, epoch fencing and resync) to its local device. On shutdown it
// stops (no link applies or acks after that) and, with -img, saves the
// applied image, ready to be promoted by restarting winefsd against it as a
// primary with a bumped -epoch.
func runReplica(addr, img, size, primary string) error {
	var dev *pmem.Device
	var err error
	if img != "" {
		if dev, err = pmem.Load(img); err != nil {
			// A replica may start from nothing: a missing image is a fresh
			// device that the first resync baselines.
			bytes, perr := pmem.ParseSize(size)
			if perr != nil {
				return fmt.Errorf("bad size: %w", perr)
			}
			dev = pmem.New(bytes)
		}
	} else {
		bytes, perr := pmem.ParseSize(size)
		if perr != nil {
			return fmt.Errorf("bad size: %w", perr)
		}
		dev = pmem.New(bytes)
	}

	rep := cluster.NewReplica(addr, dev, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "winefsd: "+format+"\n", args...)
	})
	lst, err := fileserver.ListenTCP(addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("winefsd: replica shutting down...")
		lst.Close()
	}()
	fmt.Printf("winefsd: replica of %s, applying on %s\n", primary, lst.Addr())
	rep.Serve(lst)
	rep.Stop()

	st := rep.Stats()
	fmt.Printf("winefsd: replica applied seq %d (%d records, %d bad, %d resyncs)\n",
		st.AppliedSeq, st.RecordsApplied, st.BadRecords, st.Resyncs)
	if img != "" {
		if err := dev.Save(img); err != nil {
			return fmt.Errorf("save %s: %w", img, err)
		}
		fmt.Printf("winefsd: saved %s\n", img)
	}
	return nil
}

// runSmoke boots a full server + stats endpoint on loopback ports, drives
// a small multi-client workload over TCP and checks the stats endpoint
// agrees work happened.
func runSmoke(cpus int) error {
	const clients = 4
	dev := pmem.New(256 << 20)
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		return fmt.Errorf("mkfs: %w", err)
	}
	srv := fileserver.New(fs, fileserver.Config{CPUs: cpus})
	l, err := fileserver.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	statsAddr, err := serveStats(srv, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("stats listen: %w", err)
	}

	var totalOps atomic.Int64
	if err := sim.RunThreads(sim.NewThreads(clients, 100, cpus, 0), func(i int, cctx *sim.Ctx) error {
		err := func() error {
			conn, err := fileserver.DialTCP(l.Addr())
			if err != nil {
				return err
			}
			cl, err := fileserver.Dial(conn)
			if err != nil {
				return err
			}
			res, err := workloads.ServerMixClient(cctx, cl, i, workloads.ServerMixConfig{Ops: 48, Seed: 7})
			if err != nil {
				return err
			}
			totalOps.Add(res.Ops)
			return cl.Unmount(cctx)
		}()
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return err
	}

	resp, err := http.Get("http://" + statsAddr + "/stats")
	if err != nil {
		return fmt.Errorf("stats endpoint: %w", err)
	}
	defer resp.Body.Close()
	var page statsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return fmt.Errorf("stats decode: %w", err)
	}
	if page.FS != fs.Name() {
		return fmt.Errorf("stats FS = %q, want %q", page.FS, fs.Name())
	}
	if page.Sessions.Total != clients {
		return fmt.Errorf("stats sessions.total = %d, want %d", page.Sessions.Total, clients)
	}
	// Ops includes the hello/detach frames; it must cover at least the
	// workload's own syscalls.
	if page.Ops < totalOps.Load() {
		return fmt.Errorf("stats ops = %d, want >= %d", page.Ops, totalOps.Load())
	}
	if page.Counters.Syscalls == 0 || page.Latency.Count == 0 {
		return fmt.Errorf("stats counters empty: %+v", page)
	}
	if page.Degraded {
		return fmt.Errorf("unexpected degraded mount: %s", page.Reason)
	}

	// The Prometheus endpoint must agree with /stats exactly: both sample
	// the same Stats() snapshot path, and with every client detached the
	// counters are stable between the two scrapes.
	mresp, err := http.Get("http://" + statsAddr + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics endpoint: %w", err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return fmt.Errorf("metrics read: %w", err)
	}
	prom := parsePromValues(string(body))
	for _, f := range page.Counters.Fields() {
		name := "winefsd_perf_" + metrics.SnakeCase(f.Name) + "_total"
		v, ok := prom[name]
		if !ok {
			return fmt.Errorf("metrics missing %s", name)
		}
		if v != float64(f.Value) {
			return fmt.Errorf("metrics %s = %v, /stats says %d", name, v, f.Value)
		}
	}
	// The mapping subsystem's canonical families must be on the page even
	// when idle (zero-valued counters still export).
	for _, name := range []string{"vmm_maps_total", "vmm_huge_faults_total", "vmm_cow_breaks_total"} {
		if _, ok := prom[name]; !ok {
			return fmt.Errorf("metrics missing %s", name)
		}
	}
	if got := prom["winefsd_ops_total"]; got != float64(page.Ops) {
		return fmt.Errorf("metrics ops_total = %v, /stats says %d", got, page.Ops)
	}
	if got := prom["winefsd_sessions_total"]; got != clients {
		return fmt.Errorf("metrics sessions_total = %v, want %d", got, clients)
	}
	if got := prom["winefsd_request_latency_ns_count"]; got != float64(page.Latency.Count) {
		return fmt.Errorf("metrics latency count = %v, /stats says %d", got, page.Latency.Count)
	}

	srv.Shutdown()
	if err := <-serveErr; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Printf("winefsd: smoke: %d clients, %d server ops, p99=%dns\n",
		clients, page.Ops, page.Latency.P99NS)
	return nil
}

// parsePromValues extracts unlabelled sample lines ("name value") from a
// Prometheus text page into a name → value map.
func parsePromValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.IndexByte(line, ' ')
		if i < 0 || strings.ContainsRune(line[:i], '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
