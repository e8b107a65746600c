// Cluster fault campaign: seeded runs against a replicated winefsd
// (internal/cluster), injecting replication partitions, replica lag, torn
// streams and mid-failover crashes. The ladder every run must hold:
//
//	no panic → no silent divergence → convergence
//
// "Silent divergence" is a replica whose image differs from the primary's
// while the replication engine reported nothing unusual (no degrade, no
// bad records, no gap, no resync, no failover). Divergence with a signal
// is expected — partitions open the documented degraded-mode window — and
// the Converge ladder (byte compare → logical compare → winefs.Repair →
// resync) must then bring every surviving image back to the primary's.
package crashmonkey

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

// ClusterScenario names one fault shape.
type ClusterScenario string

const (
	// ScenarioPartition: replication network cut mid-traffic, primary must
	// degrade (not block), then crash + failover + rejoin of the dead
	// primary heals the split brain.
	ScenarioPartition ClusterScenario = "partition"
	// ScenarioReplicaLag: one replica applies slowly (async mode); after
	// the stall clears, the cluster must converge with no intervention.
	ScenarioReplicaLag ClusterScenario = "replica-lag"
	// ScenarioTornStream: replication frames are bit-flipped in flight; the
	// CRC must catch every tear and resync must heal it.
	ScenarioTornStream ClusterScenario = "torn-stream"
	// ScenarioMidFailover: the primary is killed while ServerMix clients
	// are mid-operation; failover clients must finish without errors.
	ScenarioMidFailover ClusterScenario = "mid-failover"
)

var clusterScenarios = []ClusterScenario{
	ScenarioPartition, ScenarioReplicaLag, ScenarioTornStream, ScenarioMidFailover,
}

// ClusterCampaignConfig sizes the campaign.
type ClusterCampaignConfig struct {
	// Runs is the number of seeded runs (default 120), rotated across the
	// four scenarios.
	Runs int
	Seed uint64
}

func (c *ClusterCampaignConfig) defaults() {
	if c.Runs == 0 {
		c.Runs = 120
	}
}

// Each run's cluster is a primary and two replicas on 64 MiB devices.
const clusterReplicas = 2

// ClusterCampaignResult aggregates the campaign.
type ClusterCampaignResult struct {
	Runs         int
	ScenarioRuns map[ClusterScenario]int
	// DivergencesDetected counts images the checker found differing from
	// the primary — all of them must carry an engine signal.
	DivergencesDetected int
	// SilentDivergences counts divergences with no engine signal; the
	// campaign's core invariant is that this stays zero.
	SilentDivergences int
	// Converged tallies Converge outcomes (clean/logical/repair/resync).
	Converged map[cluster.ConvergeOutcome]int
	// BadRecords is the total torn/corrupt records caught by replica CRCs.
	BadRecords int64
	// Resyncs is the total full-image resyncs across all runs.
	Resyncs int64
	// Failovers is the total primary handovers performed.
	Failovers int64
	// LagObserved counts replica-lag runs where the laggard measurably
	// trailed mid-run.
	LagObserved int
	// Failures lists runs that broke the ladder.
	Failures []string
}

// OK reports whether every run held the ladder.
func (r *ClusterCampaignResult) OK() bool { return len(r.Failures) == 0 }

func (r *ClusterCampaignResult) String() string {
	return fmt.Sprintf("%d runs: %d divergences detected (%d silent), %d resyncs, %d bad records, %d failovers, converged %v, %d failures",
		r.Runs, r.DivergencesDetected, r.SilentDivergences, r.Resyncs, r.BadRecords, r.Failovers, r.Converged, len(r.Failures))
}

// RunClusterCampaign executes cfg.Runs seeded runs rotating scenarios.
//
// Each run boots its own cluster (nodes, devices, replication links) from
// nothing but its seed, so runs execute concurrently via sim.ParallelRunner
// with per-index result slots merged in index order afterwards. These runs
// are dominated by wall-clock timers (heartbeats, retry backoff, ack
// timeouts), so overlapping them shortens the campaign even on one host
// core.
func RunClusterCampaign(cfg ClusterCampaignConfig) *ClusterCampaignResult {
	cfg.defaults()
	perRun := make([]ClusterCampaignResult, cfg.Runs)
	msgs := make([]string, cfg.Runs)
	pr := sim.ParallelRunner{Workers: clusterCampaignWorkers}
	pr.Run(cfg.Runs, func(i int) {
		scenario := clusterScenarios[i%len(clusterScenarios)]
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		r := &perRun[i]
		r.ScenarioRuns = map[ClusterScenario]int{scenario: 1}
		r.Converged = make(map[cluster.ConvergeOutcome]int)
		if msg := guardRun(func() string {
			return clusterRun(scenario, seed, r)
		}); msg != "" {
			msgs[i] = fmt.Sprintf("run %d (%s, seed %#x): %s", i, scenario, seed, msg)
		}
	})
	// Convergence deadlines are wall-clock, and the parallel pass
	// oversubscribes the host on purpose (8 runs per core is the
	// throughput sweet spot for timer-bound runs). Under that load a
	// heartbeat or resync goroutine can starve past its deadline with
	// nothing actually wrong, so every failed run gets one sequential
	// rerun on an uncontended host before it counts: a scheduling
	// artifact passes the rerun, a genuinely broken seed fails twice.
	for i := range msgs {
		if msgs[i] == "" {
			continue
		}
		scenario := clusterScenarios[i%len(clusterScenarios)]
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		r := &perRun[i]
		*r = ClusterCampaignResult{
			ScenarioRuns: map[ClusterScenario]int{scenario: 1},
			Converged:    make(map[cluster.ConvergeOutcome]int),
		}
		if msg := guardRun(func() string {
			return clusterRun(scenario, seed, r)
		}); msg != "" {
			msgs[i] = fmt.Sprintf("run %d (%s, seed %#x, failed twice): %s", i, scenario, seed, msg)
		} else {
			msgs[i] = ""
		}
	}
	res := &ClusterCampaignResult{
		ScenarioRuns: make(map[ClusterScenario]int),
		Converged:    make(map[cluster.ConvergeOutcome]int),
	}
	for i := range perRun {
		r := &perRun[i]
		res.Runs++
		for s, n := range r.ScenarioRuns {
			res.ScenarioRuns[s] += n
		}
		for o, n := range r.Converged {
			res.Converged[o] += n
		}
		res.DivergencesDetected += r.DivergencesDetected
		res.SilentDivergences += r.SilentDivergences
		res.BadRecords += r.BadRecords
		res.Resyncs += r.Resyncs
		res.Failovers += r.Failovers
		res.LagObserved += r.LagObserved
		if msgs[i] != "" {
			res.Failures = append(res.Failures, msgs[i])
		}
	}
	return res
}

// clusterCampaignWorkers bounds concurrent cluster runs: each run hosts
// several nodes' worth of devices, servers and replication goroutines, so
// the cap trades campaign wall-clock (runs are timer-bound, not CPU-bound)
// against peak host memory.
const clusterCampaignWorkers = 8

// clusterRun performs one seeded scenario run; "" means the ladder held.
func clusterRun(scenario ClusterScenario, seed uint64, res *ClusterCampaignResult) string {
	rng := sim.NewRand(seed)
	ctx := sim.NewCtx(1, 0)
	fsOpts := winefs.Options{CPUs: 2}
	rcfg := cluster.ReplicatorConfig{
		// Sync for the scenarios that exercise the durability wait;
		// replica-lag and torn-stream run async so the stream itself (not
		// the client) absorbs the fault.
		Sync:           scenario == ScenarioPartition || scenario == ScenarioMidFailover,
		SyncTimeout:    40 * time.Millisecond,
		AckTimeout:     250 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		RetryMin:       2 * time.Millisecond,
		RetryMax:       25 * time.Millisecond,
		DegradeAfter:   3,
		Seed:           seed,
	}
	ccfg := cluster.Config{
		Replicas:   clusterReplicas,
		DeviceSize: deviceSize,
		FSOpts:     fsOpts,
		Repl:       rcfg,
	}
	var torn *tornWrapper
	if scenario == ScenarioTornStream {
		torn = &tornWrapper{rng: sim.NewRand(seed ^ 0xDEAD), budget: 3}
		ccfg.WrapReplConn = torn.wrap
	}
	c, err := cluster.New(ctx, ccfg)
	if err != nil {
		return fmt.Sprintf("cluster: %v", err)
	}
	defer c.Shutdown()

	switch scenario {
	case ScenarioPartition:
		return runPartition(ctx, c, rng, fsOpts, res)
	case ScenarioReplicaLag:
		return runReplicaLag(ctx, c, rng, res)
	case ScenarioTornStream:
		return runTornStream(ctx, c, rng, res)
	case ScenarioMidFailover:
		return runMidFailover(ctx, c, rng, fsOpts, seed, res)
	}
	return fmt.Sprintf("unknown scenario %q", scenario)
}

// campaignWrite creates nfiles seeded files through fs (create, append,
// fsync, close).
func campaignWrite(ctx *sim.Ctx, fs vfs.FS, rng *sim.Rand, tag string, nfiles int) error {
	for i := 0; i < nfiles; i++ {
		path := fmt.Sprintf("/%s-%02d", tag, i)
		f, err := fs.Create(ctx, path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		data := make([]byte, 1024+rng.Intn(8*1024))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		if _, err := f.Append(ctx, data); err != nil {
			return fmt.Errorf("append %s: %w", path, err)
		}
		if err := f.Fsync(ctx); err != nil {
			return fmt.Errorf("fsync %s: %w", path, err)
		}
		if err := f.Close(ctx); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
	}
	return nil
}

// harvest folds a finished cluster's engine counters into the campaign
// totals and reports whether any anomaly signal fired (the "loud" bit that
// distinguishes expected divergence from silent divergence).
func harvest(c *cluster.Cluster, res *ClusterCampaignResult) (anomalies bool) {
	st := c.Stats()
	res.Resyncs += st.Repl.Resyncs
	res.Failovers += st.Failovers
	if st.Repl.Degrades > 0 || st.Repl.RingOverruns > 0 || st.Repl.SyncTimeouts > 0 || st.Failovers > 0 {
		anomalies = true
	}
	for _, rs := range st.ReplicaSide {
		res.BadRecords += rs.BadRecords
		if rs.BadRecords > 0 || rs.Gaps > 0 || rs.Rejects > 0 {
			anomalies = true
		}
	}
	// Resyncs beyond the per-link baseline are repair actions, not silence.
	if st.Repl.Resyncs > int64(len(st.Repl.Links)) {
		anomalies = true
	}
	return anomalies
}

// runPartition cuts replication mid-traffic, requires degraded-mode
// serving, then kills the primary, fails over, rejoins the dead node and
// requires full convergence.
func runPartition(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, fsOpts winefs.Options, res *ClusterCampaignResult) string {
	conn, err := c.DialPrimary()
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		return fmt.Sprintf("handshake: %v", err)
	}
	if err := campaignWrite(ctx, cli, rng, "pre", 2); err != nil {
		return fmt.Sprintf("pre-partition write: %v", err)
	}
	if !c.AwaitConverged(5 * time.Second) {
		return "replicas never converged before the partition"
	}

	c.Partition(true)
	// The primary must keep serving writes — degraded, never blocked.
	if err := campaignWrite(ctx, cli, rng, "cut", 2); err != nil {
		return fmt.Sprintf("write during partition: %v", err)
	}
	repl, _ := c.Primary()
	if _, degraded := repl.Degraded(); !degraded {
		return "primary not degraded during partition"
	}
	cli.Close()

	// Crash the degraded primary and promote a (stale) replica: the
	// partition window's writes are the divergence the checker must see.
	deadName := c.PrimaryName()
	deadDev := c.KillPrimary()
	c.Partition(false)
	if err := c.FailOver(ctx); err != nil {
		return fmt.Sprintf("failover: %v", err)
	}
	// The dead primary holds writes the replicas never saw — the checker
	// must detect that divergence. It is never silent here: the partition
	// forced degrades and a failover, both loud signals.
	rep := cluster.Converge(ctx, c.PrimaryDevice(), deadDev, fsOpts)
	res.Converged[rep.Outcome]++
	if rep.Detected {
		res.DivergencesDetected++
		c.NoteDivergence(1)
	}
	// Heal the split brain: the dead ex-primary rejoins as a replica and
	// must resync to the new primary's image.
	if err := c.RejoinDead(deadName); err != nil {
		return fmt.Sprintf("rejoin: %v", err)
	}
	if !c.AwaitConverged(10 * time.Second) {
		return "cluster never reconverged after partition + failover + rejoin"
	}
	harvest(c, res)
	if _, fs := c.Primary(); fs != nil {
		if err := fs.Audit(ctx); err != nil {
			return fmt.Sprintf("post-failover audit: %v", err)
		}
	}
	return ""
}

// runReplicaLag slows one replica's applier in async mode; after the stall
// clears the cluster must converge by itself.
func runReplicaLag(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, res *ClusterCampaignResult) string {
	reps := c.Replicas()
	laggard := reps[rng.Intn(len(reps))]
	laggard.SetApplyDelay(time.Duration(2+rng.Intn(8)) * time.Millisecond)

	conn, err := c.DialPrimary()
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		return fmt.Sprintf("handshake: %v", err)
	}
	defer cli.Close()
	if err := campaignWrite(ctx, cli, rng, "lag", 5); err != nil {
		return fmt.Sprintf("write: %v", err)
	}
	repl, _ := c.Primary()
	for _, l := range repl.Stats().Links {
		if l.Name == laggard.Name() && l.Lag > 0 {
			res.LagObserved++
			break
		}
	}
	laggard.SetApplyDelay(0)
	if !c.AwaitConverged(10 * time.Second) {
		return "laggard never caught up after the stall cleared"
	}
	harvest(c, res)
	return ""
}

// runTornStream writes through a bit-flipping replication transport; the
// record CRCs must catch the tears and resync must heal every replica.
func runTornStream(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, res *ClusterCampaignResult) string {
	conn, err := c.DialPrimary()
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		return fmt.Sprintf("handshake: %v", err)
	}
	defer cli.Close()
	if err := campaignWrite(ctx, cli, rng, "torn", 5); err != nil {
		return fmt.Sprintf("write: %v", err)
	}
	if !c.AwaitConverged(15 * time.Second) {
		return "replicas never converged through the torn stream"
	}
	harvest(c, res)
	return ""
}

// runMidFailover kills the primary while ServerMix clients are mid-flight;
// the failover clients must complete every operation, and every surviving
// image must converge on the new primary.
func runMidFailover(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, fsOpts winefs.Options, seed uint64, res *ClusterCampaignResult) string {
	// Let the baseline resyncs finish before arming the killer: only an
	// in-sync replica is a promotion candidate (as in real operations), so
	// a kill during bootstrap would have nothing valid to promote.
	if !c.AwaitConverged(5 * time.Second) {
		return "replicas never finished the baseline resync"
	}
	const clients = 2
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx := sim.NewCtx(300+i, 0)
			// The initial dial can itself land inside the failover window
			// (DialFailover only retries once connected) — ride it out.
			var fc *cluster.FailoverClient
			var err error
			for attempt := 0; attempt < 200; attempt++ {
				fc, err = cluster.DialFailover(c.DialPrimary)
				if err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err != nil {
				errs[i] = fmt.Errorf("dial: %w", err)
				return
			}
			_, err = workloads.ServerMixClient(cctx, fc, i, workloads.ServerMixConfig{
				Ops: 8, MeanFileKB: 4, Seed: seed + uint64(i),
			})
			errs[i] = err
		}(i)
	}

	time.Sleep(time.Duration(1+rng.Intn(12)) * time.Millisecond)
	deadName := c.PrimaryName()
	deadDev := c.KillPrimary()
	fctx := sim.NewCtx(2, 0)
	if err := c.FailOver(fctx); err != nil {
		return fmt.Sprintf("failover: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Sprintf("client %d failed across failover: %v", i, err)
		}
	}

	if !c.AwaitConverged(10 * time.Second) {
		return "replicas never converged on the new primary"
	}
	// harvest sees st.Failovers > 0 (we just failed over), so a detected
	// divergence on the dead primary's image is loud, never silent.
	anomalies := harvest(c, res)
	rep := cluster.Converge(ctx, c.PrimaryDevice(), deadDev, fsOpts)
	res.Converged[rep.Outcome]++
	if rep.Detected {
		res.DivergencesDetected++
		c.NoteDivergence(1)
		if !anomalies {
			res.SilentDivergences++
			return fmt.Sprintf("silent divergence on dead primary %s: %v", deadName, rep.Log)
		}
	}
	if _, fs := c.Primary(); fs != nil {
		if err := fs.Audit(ctx); err != nil {
			return fmt.Sprintf("post-failover audit: %v", err)
		}
	}
	return ""
}

// tornWrapper wraps primary-side replication connections with a seeded
// bit-flipper. Only frames large enough to be record batches are touched
// (control frames stay intact so the link can keep negotiating), and the
// budget bounds total corruption so runs terminate.
type tornWrapper struct {
	mu     sync.Mutex
	rng    *sim.Rand
	budget int
}

func (t *tornWrapper) wrap(replica string, c fileserver.Conn) fileserver.Conn {
	return &tornConn{Conn: c, w: t}
}

type tornConn struct {
	fileserver.Conn
	w *tornWrapper
}

func (c *tornConn) Write(p []byte) (int, error) {
	c.w.mu.Lock()
	corrupt := c.w.budget > 0 && len(p) > 64 && c.w.rng.Intn(3) == 0
	if corrupt {
		c.w.budget--
		q := append([]byte(nil), p...)
		q[c.w.rng.Intn(len(q))] ^= byte(1 << uint(c.w.rng.Intn(8)))
		c.w.mu.Unlock()
		return c.Conn.Write(q)
	}
	c.w.mu.Unlock()
	return c.Conn.Write(p)
}
