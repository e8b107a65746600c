// winebench -replicated: the replication-overhead benchmark. The same
// ServerMix fan-out runs twice — once against a plain single-node server,
// once against a 1-primary/N-replica cluster with synchronous replication
// — and the virtual makespans are compared; bench.Claims bounds the
// overhead. A run whose two halves did different work, or whose replicas
// do not end byte-identical to the primary, has no overhead to judge and
// fails outright.
//
// The committed BENCH_replicated.json gates op counts and resyncs exactly
// and the record stream and spans with the usual contention tolerance
// (group-commit batching follows real scheduler interleaving).
package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fileserver"
	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// withFreshServer boots a strict-mode server on a fresh image of size
// bytes over the in-memory transport, tracing to tracer unless it is nil,
// runs body against its listener, shuts the server down and returns its
// final stats.
func withFreshServer(cpus int, size int64, tracer *trace.Tracer, body func(pl *fileserver.PipeListener) error) (fileserver.Stats, error) {
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(size), winefs.Options{CPUs: cpus, Mode: vfs.Strict})
	if err != nil {
		return fileserver.Stats{}, fmt.Errorf("mkfs: %w", err)
	}
	srv := fileserver.New(fs, fileserver.Config{CPUs: cpus, Tracer: tracer})
	pl := fileserver.NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()
	err = body(pl)
	srv.Shutdown()
	if serr := <-serveErr; err == nil && serr != nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	return srv.Stats(), err
}

// mixFanout is the one client fan-out loop (-server, -cache, -replicated):
// each of `clients` simulated threads dials, handshakes, wraps its client
// in a page cache configured by cache unless that is nil, runs body on its
// own Ctx and unmounts. It returns every client's result, Ctx (for the
// counters) and cache Stats as they stood before the unmount (zero without
// a cache), or the lowest-numbered failing client's error.
func mixFanout[R any](dial func() (fileserver.Conn, error), clients, cpus int, cache *pagecache.Config,
	body func(ctx *sim.Ctx, target vfs.FS, i int) (R, error)) ([]R, []*sim.Ctx, []pagecache.Stats, error) {
	results := make([]R, clients)
	ctxs := sim.NewThreads(clients, 5000, cpus, 0)
	cstats := make([]pagecache.Stats, clients)
	if err := sim.RunThreads(ctxs, func(i int, ctx *sim.Ctx) error {
		err := func() error {
			conn, err := dial()
			if err != nil {
				return err
			}
			cl, err := fileserver.Dial(conn)
			if err != nil {
				return err
			}
			var target vfs.FS = cl
			var pc *pagecache.Cache
			if cache != nil {
				pc = pagecache.New(cl, *cache)
				target = pc
			}
			results[i], err = body(ctx, target, i)
			if pc != nil {
				cstats[i] = pc.Stats()
			}
			if err != nil {
				return err
			}
			return target.Unmount(ctx)
		}()
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	return results, ctxs, cstats, nil
}

// serverMixFanout runs the ServerMix workload on every bare client of a
// fan-out.
func serverMixFanout(dial func() (fileserver.Conn, error), clients, cpus, ops int, seed uint64) ([]workloads.ServerMixResult, []*sim.Ctx, error) {
	results, ctxs, _, err := mixFanout(dial, clients, cpus, nil, func(ctx *sim.Ctx, target vfs.FS, i int) (workloads.ServerMixResult, error) {
		return workloads.ServerMixClient(ctx, target, i, workloads.ServerMixConfig{Ops: ops, Seed: seed})
	})
	return results, ctxs, err
}

// mixSpans totals a ServerMix fan-out: (client ops, virtual makespan,
// summed client spans).
func mixSpans(results []workloads.ServerMixResult) (totalOps, spanNS, sumNS int64) {
	for _, r := range results {
		totalOps += r.Ops
		sumNS += r.VirtualNS
		if r.VirtualNS > spanNS {
			spanNS = r.VirtualNS
		}
	}
	return
}

// runReplicatedBench measures synchronous-replication overhead on the
// ServerMix serving baseline.
func runReplicatedBench(o options) (*bench.Report, error) {
	const nReplicas, size = 2, 1 << 30
	clients, cpus, seed := o.clients, o.cpus, o.seed
	ops := serverMixOps
	if o.quick {
		ops = serverMixOpsQuick
	}

	// Plain baseline: one server, no replication.
	var plainOps, plainSpan, plainSum int64
	_, err := withFreshServer(cpus, size, nil, func(pl *fileserver.PipeListener) error {
		plain, _, err := serverMixFanout(pl.Dial, clients, cpus, ops, seed)
		plainOps, plainSpan, plainSum = mixSpans(plain)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("plain run: %w", err)
	}

	// Replicated run: same workload through a synchronous 2-replica
	// cluster; every acknowledged write waited for replica durability.
	cctx := sim.NewCtx(2, 0)
	cl, err := cluster.New(cctx, cluster.Config{
		Replicas:   nReplicas,
		DeviceSize: size,
		FSOpts:     winefs.Options{CPUs: cpus, Mode: vfs.Strict},
		Server:     fileserver.Config{CPUs: cpus},
		Repl:       cluster.ReplicatorConfig{Sync: true, Seed: seed},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer cl.Shutdown()
	repl, _, err := serverMixFanout(cl.DialPrimary, clients, cpus, ops, seed)
	if err != nil {
		return nil, fmt.Errorf("replicated run: %w", err)
	}
	replOps, replSpan, replSum := mixSpans(repl)
	if replOps != plainOps {
		return nil, fmt.Errorf("op-count mismatch: plain %d vs replicated %d", plainOps, replOps)
	}
	// Integrity before performance: every replica must end byte-identical
	// to the primary, or the overhead number is meaningless.
	if err := cl.AwaitConverged(30 * time.Second); err != nil {
		return nil, fmt.Errorf("replicas did not converge with the primary after the run: %w", err)
	}
	st := cl.Stats()

	overhead := 0.0
	if plainSum > 0 {
		overhead = (float64(replSum) - float64(plainSum)) / float64(plainSum) * 100
	}

	// PlainSpanNS / ReplicatedSpanNS are the virtual makespans (slowest
	// client), PlainSumNS / ReplicatedSumNS the summed per-client spans that
	// OverheadPct is computed on. Resyncs is the per-replica baseline image
	// transfer (== Replicas), exact; the record stream is toleranced.
	rep := bench.New("server-mix-replicated/v1", map[string]float64{
		"Clients": float64(clients), "OpsPerClient": float64(ops), "CPUs": float64(cpus),
		"Replicas": nReplicas, "Seed": float64(seed)})
	p := rep.Point(nil, 0)
	p.Ints(map[string]int64{"ClientOps": plainOps,
		"PlainSpanNS": plainSpan, "ReplicatedSpanNS": replSpan, "PlainSumNS": plainSum, "ReplicatedSumNS": replSum,
		"RecordsLogged": st.Repl.RecordsLogged, "BytesLogged": st.Repl.BytesLogged,
		"Resyncs": st.Repl.Resyncs})
	p.Floats(map[string]float64{"OverheadPct": overhead})
	for _, rs := range st.ReplicaSide {
		if rs.BadRecords != 0 || rs.Gaps != 0 {
			return nil, fmt.Errorf("replica saw %d bad records, %d gaps on a clean in-memory stream", rs.BadRecords, rs.Gaps)
		}
	}
	return rep, nil
}

// replicatedTables prints a -replicated report.
func replicatedTables(rep *bench.Report) []bench.Table {
	c := rep.Config
	return []bench.Table{{
		Title: fmt.Sprintf("Replication overhead: %.0f clients x %.0f iterations, %.0f sync replicas",
			c["Clients"], c["OpsPerClient"], c["Replicas"]),
		Cols: []bench.Col{
			{Head: "client ops", Field: "ClientOps", Fmt: "%.0f"},
			{Head: "plain span", Field: "PlainSpanNS,PlainSumNS", Fmt: "%.0fns (sum %.0fns)"},
			{Head: "replicated span", Field: "ReplicatedSpanNS,ReplicatedSumNS", Fmt: "%.0fns (sum %.0fns)"},
			{Head: "overhead", Field: "OverheadPct", Fmt: "%.2f%% of summed spans"},
			{Head: "records logged", Field: "RecordsLogged", Fmt: "%.0f"},
			{Head: "bytes logged", Field: "BytesLogged", Fmt: "%.0f"},
			{Head: "resyncs", Field: "Resyncs", Fmt: "%.0f (baseline image per replica)"},
		},
	}}
}
