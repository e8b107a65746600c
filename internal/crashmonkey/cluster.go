// Cluster fault campaign: seeded runs against a replicated winefsd
// (internal/cluster), injecting replication partitions, replica lag, torn
// streams and a primary killed mid-operation. The ladder every run must
// hold:
//
//	no panic → no silent divergence → acked ⇒ visible → convergence
//
// Convergence is a sequence fact: every replica has acked the primary's
// last sequence with no resync pending, and AwaitConverged then checks
// each replica's bytes once. A "silent divergence" is a replica whose
// sequences match the primary's while its bytes differ — a store the
// stream never carried — and it fails the run.
//
// A promotion is the one winefsd ships: kill the primary, stop the most
// caught-up replica (its image is then final), mount that image and start
// a primary on it at epoch 2, linked to the remaining replicas. A dead
// primary's image diverges from its successor's by design (the writes it
// took after its replicas last acked), and one byte compare counts that.
// In the partition scenario the dead image then rejoins as a replica, and
// its baseline resync is the repair. In the mid-failover scenario the
// promoted image must hold what the clients were told: every operation a
// synchronous primary acknowledged.
package crashmonkey

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fileserver"
	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// ClusterScenario names one fault shape.
type ClusterScenario string

const (
	// ScenarioPartition: replication network cut mid-traffic, primary must
	// degrade (not block), then a kill, a promotion and the dead primary's
	// image rejoining as a replica heal the split brain.
	ScenarioPartition ClusterScenario = "partition"
	// ScenarioReplicaLag: one replica applies slowly (async mode); after
	// the stall clears, the cluster must converge with no intervention.
	ScenarioReplicaLag ClusterScenario = "replica-lag"
	// ScenarioTornStream: replication frames are bit-flipped in flight; the
	// CRC must catch every tear and resync must heal it.
	ScenarioTornStream ClusterScenario = "torn-stream"
	// ScenarioMidFailover: the primary is killed while clients are
	// mid-operation; a replica is promoted and must hold every operation
	// the primary acknowledged.
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
	// DivergencesDetected counts dead-primary images that differ from the
	// image promoted in their place.
	DivergencesDetected int
	// SilentDivergences counts replicas whose sequences matched the
	// primary's while their bytes differed; the campaign's core invariant
	// is that this stays zero.
	SilentDivergences int
	// BadRecords is the total torn/corrupt records caught by replica CRCs.
	BadRecords int64
	// Resyncs is the total full-image resyncs across all runs.
	Resyncs int64
	// Promotions counts replicas promoted to primary.
	Promotions int
	// PrefixOnly lists mid-failover runs whose primary had degraded a link
	// before the kill: its acks then no longer waited for that replica, so
	// the promoted image is held to some prefix of each client's
	// operations rather than to the acknowledged one.
	PrefixOnly []string
	// LagObserved counts replica-lag runs where the laggard measurably
	// trailed mid-run.
	LagObserved int
	// Reruns counts runs that failed in the parallel pass and ran again
	// alone.
	Reruns int
	// Failures lists runs that broke the ladder.
	Failures []string
}

// OK reports whether every run held the ladder.
func (r *ClusterCampaignResult) OK() bool { return len(r.Failures) == 0 }

func (r *ClusterCampaignResult) String() string {
	return fmt.Sprintf("%d runs: %d divergences detected (%d silent), %d resyncs, %d bad records, %d promotions (%d held to a prefix only), %d reruns, %d failures",
		r.Runs, r.DivergencesDetected, r.SilentDivergences, r.Resyncs, r.BadRecords, r.Promotions, len(r.PrefixOnly), r.Reruns, len(r.Failures))
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
	run := func(i int, note string) {
		scenario := clusterScenarios[i%len(clusterScenarios)]
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		r := &perRun[i]
		*r = ClusterCampaignResult{ScenarioRuns: map[ClusterScenario]int{scenario: 1}}
		name := fmt.Sprintf("run %d (%s, seed %#x%s)", i, scenario, seed, note)
		msgs[i] = ""
		if msg := guardRun(func() string {
			return clusterRun(scenario, seed, name, r)
		}); msg != "" {
			msgs[i] = name + ": " + msg
		}
	}
	pr := sim.ParallelRunner{Workers: clusterCampaignWorkers}
	pr.Run(cfg.Runs, func(i int) { run(i, "") })
	// Convergence deadlines are wall-clock, and the parallel pass
	// oversubscribes the host on purpose (8 runs per core is the
	// throughput sweet spot for timer-bound runs). Under that load a
	// heartbeat or resync goroutine can starve past its deadline with
	// nothing actually wrong, so every failed run gets one sequential
	// rerun on an uncontended host before it counts: a scheduling
	// artifact passes the rerun, a genuinely broken seed fails twice. A
	// silent divergence is no scheduling artifact and is not rerun.
	reruns := 0
	for i := range msgs {
		if msgs[i] != "" && perRun[i].SilentDivergences == 0 {
			reruns++
			run(i, ", failed twice")
		}
	}
	res := &ClusterCampaignResult{
		ScenarioRuns: make(map[ClusterScenario]int),
		Reruns:       reruns,
	}
	for i := range perRun {
		r := &perRun[i]
		res.Runs++
		for s, n := range r.ScenarioRuns {
			res.ScenarioRuns[s] += n
		}
		res.DivergencesDetected += r.DivergencesDetected
		res.SilentDivergences += r.SilentDivergences
		res.BadRecords += r.BadRecords
		res.Resyncs += r.Resyncs
		res.Promotions += r.Promotions
		res.PrefixOnly = append(res.PrefixOnly, r.PrefixOnly...)
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
func clusterRun(scenario ClusterScenario, seed uint64, name string, res *ClusterCampaignResult) string {
	rng := sim.NewRand(seed)
	ctx := sim.NewCtx(1, 0)
	// Strict: the mid-failover oracle holds an in-flight operation to
	// all-or-nothing, which is strict mode's promise.
	fsOpts := winefs.Options{CPUs: 2, Mode: vfs.Strict}
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
		return runMidFailover(ctx, c, rng, fsOpts, seed, name, res)
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

// dialClient opens a client session on the current primary.
func dialClient(c *cluster.Cluster) (*fileserver.Client, error) {
	conn, err := c.DialPrimary()
	if err != nil {
		return nil, err
	}
	return fileserver.Dial(conn)
}

// harvest folds a finished cluster's engine counters into the campaign
// totals.
func harvest(c *cluster.Cluster, res *ClusterCampaignResult) {
	st := c.Stats()
	res.Resyncs += st.Repl.Resyncs
	for _, rs := range st.ReplicaSide {
		res.BadRecords += rs.BadRecords
	}
}

// awaitConverged waits for the cluster to converge and returns "" or the
// run's failure message, counting a silent divergence.
func awaitConverged(c *cluster.Cluster, timeout time.Duration, res *ClusterCampaignResult) string {
	err := c.AwaitConverged(timeout)
	if err == nil {
		return ""
	}
	var silent *cluster.SilentDivergence
	if errors.As(err, &silent) {
		res.SilentDivergences++
	}
	return err.Error()
}

// runPartition cuts replication mid-traffic, requires degraded-mode
// serving, then kills the primary, promotes a replica, rejoins the dead
// primary's image as a replica and requires full convergence.
func runPartition(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, fsOpts winefs.Options, res *ClusterCampaignResult) string {
	cli, err := dialClient(c)
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	if err := campaignWrite(ctx, cli, rng, "pre", 2); err != nil {
		return fmt.Sprintf("pre-partition write: %v", err)
	}
	if msg := awaitConverged(c, 5*time.Second, res); msg != "" {
		return "before the partition: " + msg
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
	// partition window's writes, which the replicas never saw, are the
	// divergence the byte compare must see. The dead image then rejoins
	// as a replica and must resync to the new primary's.
	dead := c.KillPrimary()
	c.Partition(false)
	fs, msg := promote(ctx, c, fsOpts, dead, true, res)
	if msg != "" {
		return msg
	}
	if msg := awaitConverged(c, 10*time.Second, res); msg != "" {
		return "after partition + promotion + rejoin: " + msg
	}
	harvest(c, res)
	if err := fs.Audit(ctx); err != nil {
		return fmt.Sprintf("post-promotion audit: %v", err)
	}
	return ""
}

// promote runs winefsd's promotion on a cluster whose primary was killed:
// stop the replica an operator would pick (its image is then final), count
// the dead image's divergence from it, mount it, and start a primary on it
// at epoch 2, linked to the remaining replicas and, with rejoin, to a
// replica on the dead primary's image (winefsd -replica-of -img dead.img).
func promote(ctx *sim.Ctx, c *cluster.Cluster, fsOpts winefs.Options, dead *pmem.Device, rejoin bool, res *ClusterCampaignResult) (*winefs.FS, string) {
	rep, err := c.StopReplica()
	if err != nil {
		return nil, fmt.Sprintf("promotion: %v", err)
	}
	if len(cluster.CompareDevices(rep.Device(), dead)) > 0 {
		res.DivergencesDetected++
	}
	fs, err := winefs.Mount(ctx, rep.Device(), fsOpts)
	if err != nil {
		return nil, fmt.Sprintf("mount %s's image: %v", rep.Name(), err)
	}
	if rejoin {
		c.AddReplica("rejoined", dead)
	}
	c.StartPrimary(ctx, fs, 2)
	res.Promotions++
	return fs, ""
}

// runReplicaLag slows one replica's applier in async mode; after the stall
// clears the cluster must converge by itself.
func runReplicaLag(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, res *ClusterCampaignResult) string {
	reps := c.Replicas()
	laggard := reps[rng.Intn(len(reps))]
	laggard.SetApplyDelay(time.Duration(2+rng.Intn(8)) * time.Millisecond)

	cli, err := dialClient(c)
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
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
	if msg := awaitConverged(c, 10*time.Second, res); msg != "" {
		return "after the stall cleared: " + msg
	}
	harvest(c, res)
	return ""
}

// runTornStream writes through a bit-flipping replication transport; the
// record CRCs must catch the tears and resync must heal every replica.
func runTornStream(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, res *ClusterCampaignResult) string {
	cli, err := dialClient(c)
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	defer cli.Close()
	if err := campaignWrite(ctx, cli, rng, "torn", 5); err != nil {
		return fmt.Sprintf("write: %v", err)
	}
	if msg := awaitConverged(c, 15*time.Second, res); msg != "" {
		return "through the torn stream: " + msg
	}
	harvest(c, res)
	return ""
}

// runMidFailover kills the primary while two clients are mid-operation,
// each running a seeded fstest.Op list on its own names through a plain
// fileserver.Client, once client 0 has had a seeded number of operations
// acknowledged. After the kill a client may only see its transport die.
// The promoted image must then hold, for each client, the files
// fstest.MemFS holds after the client's acknowledged operations, with or
// without the one it had in flight.
func runMidFailover(ctx *sim.Ctx, c *cluster.Cluster, rng *sim.Rand, fsOpts winefs.Options, seed uint64, name string, res *ClusterCampaignResult) string {
	// Let the baseline resyncs finish first: only an in-sync replica is a
	// promotion candidate (as in real operations), so a kill during
	// bootstrap would have nothing valid to promote.
	if msg := awaitConverged(c, 5*time.Second, res); msg != "" {
		return "after the baseline resync: " + msg
	}
	const clients, nops = 2, 12
	repl, _ := c.Primary()
	killAfter := 1 + rng.Intn(nops-1) // client 0's acks before the kill
	ops := make([][]fstest.Op, clients)
	clis := make([]*fileserver.Client, clients)
	for i := range ops {
		ops[i] = clientOps(ctx, sim.NewRand(seed+uint64(i)), i, nops)
		cli, err := dialClient(c)
		if err != nil {
			return fmt.Sprintf("client %d dial: %v", i, err)
		}
		defer cli.Close()
		clis[i] = cli
	}
	acked := make([]int, clients)
	errs := make([]error, clients)
	kill := make(chan struct{})
	var killOnce sync.Once
	var wg sync.WaitGroup
	for i := range clis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				defer killOnce.Do(func() { close(kill) })
			}
			cctx := sim.NewCtx(300+i, 0)
			for _, o := range ops[i] {
				if errs[i] = fstest.Apply(cctx, clis[i], o); errs[i] != nil {
					return
				}
				if acked[i]++; i == 0 && acked[i] == killAfter {
					killOnce.Do(func() { close(kill) })
				}
			}
		}()
	}
	<-kill
	dead := c.KillPrimary()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, fileserver.ErrConnClosed) && !errors.Is(err, fileserver.ErrShutdown) {
			return fmt.Sprintf("client %d: %s: %v", i, ops[i][acked[i]], err)
		}
	}
	// A degraded link no longer held up acks, so the replica promoted may
	// lack acknowledged operations; the run then checks only that each
	// client's files are those of some prefix of its operations.
	prefixOnly := repl.Stats().Degrades > 0
	if prefixOnly {
		res.PrefixOnly = append(res.PrefixOnly, name)
	}

	fs, msg := promote(ctx, c, fsOpts, dead, false, res)
	if msg != "" {
		return msg
	}
	for i := range ops {
		lo, hi := acked[i], acked[i]
		if errs[i] != nil {
			hi++ // the operation in flight may have landed
		}
		if prefixOnly {
			lo = 0
		}
		if msg := checkAcked(ctx, fs, ops[i], lo, hi); msg != "" {
			return fmt.Sprintf("client %d (%d of %d operations acked): %s", i, acked[i], nops, msg)
		}
	}
	if msg := awaitConverged(c, 10*time.Second, res); msg != "" {
		return "on the new primary: " + msg
	}
	harvest(c, res)
	if err := fs.Audit(ctx); err != nil {
		return fmt.Sprintf("post-promotion audit: %v", err)
	}
	return ""
}

// clientOps returns client i's seeded list of n operations on its own
// names (/c<i>-<k>): creates, appends, pwrites, truncates, renames to a
// new name and unlinks, each one mutating call on the server. Every
// payload byte is non-zero, so a lost page cannot pass for a hole.
func clientOps(ctx *sim.Ctx, rng *sim.Rand, i, n int) []fstest.Op {
	model := fstest.NewMemFS()
	var files []string
	next := 0
	fresh := func() string {
		next++
		return fmt.Sprintf("/c%d-%d", i, next)
	}
	data := func() []byte {
		p := make([]byte, 1+rng.Intn(8<<10))
		for j := range p {
			p[j] = byte(1 + rng.Intn(255))
		}
		return p
	}
	ops := make([]fstest.Op, 0, n)
	for len(ops) < n {
		o := fstest.Op{Kind: fstest.Create}
		if len(files) == 0 || rng.Intn(6) == 0 {
			o.A = fresh()
			files = append(files, o.A)
		} else {
			k := rng.Intn(len(files))
			o.A = files[k]
			fi, _ := model.Stat(ctx, o.A)
			switch rng.Intn(6) {
			case 0, 1:
				o.Kind, o.Data = fstest.Append, data()
			case 2:
				o.Kind, o.Off, o.Data = fstest.Write, rng.Int63n(fi.Size+1), data()
			case 3:
				o.Kind, o.Size = fstest.Truncate, rng.Int63n(fi.Size+16<<10)
			case 4:
				o.Kind, o.B = fstest.Rename, fresh()
				files[k] = o.B
			default:
				o.Kind = fstest.Unlink
				files = append(files[:k], files[k+1:]...)
			}
		}
		fstest.Apply(ctx, model, o) // MemFS fails none of these: each names a file it holds
		ops = append(ops, o)
	}
	return ops
}

// checkAcked holds fs to one client's operations: every name they touch
// must read as it does in fstest.MemFS after the first k of ops, for some k
// from lo to hi. MemFS cannot list its names, so the comparison goes name
// by name.
func checkAcked(ctx *sim.Ctx, fs vfs.FS, ops []fstest.Op, lo, hi int) string {
	var names []string
	for _, o := range ops {
		names = append(names, o.A)
		if o.B != "" {
			names = append(names, o.B)
		}
	}
	var msg string
	for k := lo; k <= hi; k++ {
		model := fstest.NewMemFS()
		for _, o := range ops[:k] {
			fstest.Apply(ctx, model, o) // as in clientOps, which built them on MemFS
		}
		if msg = sameFiles(ctx, fs, model, names); msg == "" {
			return ""
		}
	}
	return fmt.Sprintf("the promoted image matches no prefix of %d to %d operations (against %d: %s)", lo, hi, hi, msg)
}

// sameFiles compares the named files of got and want: present in both or
// in neither, and byte for byte.
func sameFiles(ctx *sim.Ctx, got, want vfs.FS, names []string) string {
	for _, name := range names {
		g, gok, err := readFile(ctx, got, name)
		if err != nil {
			return err.Error()
		}
		w, wok, err := readFile(ctx, want, name)
		if err != nil {
			return err.Error()
		}
		if gok != wok || !bytes.Equal(g, w) {
			return fmt.Sprintf("%s: %d bytes (present %t), want %d (present %t)", name, len(g), gok, len(w), wok)
		}
	}
	return ""
}

// readFile reads a whole file; ok is false if it does not exist.
func readFile(ctx *sim.Ctx, fs vfs.FS, name string) (data []byte, ok bool, err error) {
	f, err := fs.Open(ctx, name)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("open %s: %w", name, err)
	}
	defer f.Close(ctx)
	data = make([]byte, f.Size())
	if _, err := f.ReadAt(ctx, data, 0); err != nil && err != io.EOF {
		return nil, false, fmt.Errorf("read %s: %w", name, err)
	}
	return data, true, nil
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
