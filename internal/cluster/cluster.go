package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fileserver"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// Config sizes an in-process cluster (the orchestration used by tests, the
// fault campaign and winebench -replicated; winefsd wires the same pieces
// over TCP by hand).
type Config struct {
	// Replicas is the number of replica nodes behind the primary.
	// Default 2.
	Replicas int
	// DeviceSize is each node's simulated pmem size (sparse, so big sizes
	// are cheap). Default 256 MiB.
	DeviceSize int64
	// FSOpts configures every node's WineFS identically (a replica's
	// image must mount with the primary's geometry).
	FSOpts winefs.Options
	// Server configures the client-facing primary server.
	Server fileserver.Config
	// Repl configures the replication engine (Epoch is overridden by the
	// cluster's own epoch counter).
	Repl ReplicatorConfig
	// WrapReplConn, when non-nil, wraps the primary side of each
	// replication connection — the fault campaign's torn-stream hook.
	WrapReplConn func(replica string, c fileserver.Conn) fileserver.Conn
	// Logf (nil for silent) narrates cluster events.
	Logf func(string, ...any)
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.DeviceSize <= 0 {
		c.DeviceSize = 256 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// nodeRole is a node's current cluster position.
type nodeRole int32

const (
	rolePrimary nodeRole = iota
	roleReplica
	roleDead // killed primary, image retained for divergence checks
)

// node is one daemon: a device plus either the primary serving stack or a
// replica applier.
type node struct {
	name string
	dev  *pmem.Device

	// Replica side (valid while role == roleReplica).
	rep     *Replica
	replLst *fileserver.PipeListener

	// Primary side (valid while role == rolePrimary).
	fs        *winefs.FS
	srv       *fileserver.Server
	clientLst *fileserver.PipeListener
	repl      *Replicator
	serveDone chan struct{}

	role nodeRole
}

// Cluster wires a primary winefsd and N replicas over in-memory pipes:
// clients dial the current primary (DialPrimary), the primary streams its
// write log to every replica, and failover promotes the most caught-up
// replica under a bumped epoch.
type Cluster struct {
	cfg Config

	mu          sync.Mutex
	nodes       []*node
	primaryIdx  int
	epoch       uint64
	failovers   int64
	partitioned atomic.Bool
	closed      bool
}

// New builds and starts the cluster: node0 is formatted (Mkfs) and serves
// as the first primary under epoch 1; the rest start as empty replicas
// (their first hello triggers a resync, which for a fresh image is cheap).
func New(ctx *sim.Ctx, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, epoch: 1}
	for i := 0; i <= cfg.Replicas; i++ {
		n := &node{
			name: fmt.Sprintf("node%d", i),
			dev:  pmem.New(cfg.DeviceSize),
			role: roleReplica,
		}
		c.nodes = append(c.nodes, n)
	}
	primary := c.nodes[0]
	fs, err := winefs.Mkfs(ctx, primary.dev, cfg.FSOpts)
	if err != nil {
		return nil, fmt.Errorf("cluster: mkfs: %w", err)
	}
	for _, n := range c.nodes[1:] {
		c.startReplica(n)
	}
	c.startPrimary(ctx, primary, fs)
	return c, nil
}

// startReplica attaches an applier and a replication listener to n. Takes
// c.mu itself (callers must not hold it): node fields are read under the
// lock by DialPrimary/Replicas/Stats, possibly concurrently with failover
// rewiring.
func (c *Cluster) startReplica(n *node) {
	rep := NewReplica(n.name, n.dev, c.cfg.Logf)
	lst := fileserver.NewPipeListener()
	c.mu.Lock()
	n.role = roleReplica
	n.rep = rep
	n.replLst = lst
	c.mu.Unlock()
	go rep.Serve(lst)
}

// startPrimary stands up the serving stack on n over the already mounted
// fs and links every current replica. Takes c.mu itself (callers must not
// hold it): node fields are read under the lock by DialPrimary/Stats,
// possibly concurrently with failover clients redialing.
func (c *Cluster) startPrimary(ctx *sim.Ctx, n *node, fs *winefs.FS) {
	c.mu.Lock()
	rcfg := c.cfg.Repl
	rcfg.Epoch = c.epoch
	if rcfg.Logf == nil {
		rcfg.Logf = c.cfg.Logf
	}
	repl := NewReplicator(fs, rcfg)
	for _, other := range c.nodes {
		if other == n || other.role != roleReplica {
			continue
		}
		repl.AddReplica(other.name, c.replDial(other))
	}

	scfg := c.cfg.Server
	scfg.Epoch = c.epoch
	scfg.BaseNS = ctx.Now()
	scfg.PostMutate = repl.PostMutate
	srv := fileserver.New(fs, scfg)
	lst := fileserver.NewPipeListener()
	done := make(chan struct{})
	c.mu.Unlock()

	// Hook replication before the node is published as primary: a client
	// write landing before Attach would escape the record log.
	repl.Attach()

	c.mu.Lock()
	n.role = rolePrimary
	n.fs = fs
	n.repl = repl
	n.srv = srv
	n.clientLst = lst
	n.serveDone = done
	c.mu.Unlock()

	go func() {
		srv.Serve(lst)
		close(done)
	}()
}

// replDial builds the primary-side dial function for one replica,
// honouring partition injection and the torn-stream wrapper.
func (c *Cluster) replDial(target *node) func() (fileserver.Conn, error) {
	return func() (fileserver.Conn, error) {
		if c.partitioned.Load() {
			return nil, fmt.Errorf("cluster: replication partitioned")
		}
		conn, err := target.replLst.Dial()
		if err != nil {
			return nil, err
		}
		if c.cfg.WrapReplConn != nil {
			conn = c.cfg.WrapReplConn(target.name, conn)
		}
		return conn, nil
	}
}

// Epoch reports the current primary epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Primary returns the current primary node's replicator and FS (nil, nil
// if the primary is dead).
func (c *Cluster) Primary() (*Replicator, *winefs.FS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.nodes[c.primaryIdx]
	if p.role != rolePrimary {
		return nil, nil
	}
	return p.repl, p.fs
}

// PrimaryDevice returns the current primary's device.
func (c *Cluster) PrimaryDevice() *pmem.Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[c.primaryIdx].dev
}

// PrimaryName returns the current primary node's name (still the old
// primary's name between KillPrimary and FailOver).
func (c *Cluster) PrimaryName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[c.primaryIdx].name
}

// AwaitConverged waits until every replica has acked the primary's last
// sequence with no resync pending or in flight, then byte-compares each
// replica with the primary once, its applier paused, and waits again if the
// primary logged more meanwhile. nil means converged; a timeout names the
// first link behind; a replica that acked every sequence and still differs
// is a *SilentDivergence. Call it with the clients quiet: a store is in the
// sequence once the write that made it has returned.
func (c *Cluster) AwaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	repl, _ := c.Primary()
	if repl == nil {
		return fmt.Errorf("cluster: no live primary")
	}
	for time.Now().Before(deadline) {
		seq, err := repl.awaitSynced(time.Until(deadline))
		if err != nil {
			return fmt.Errorf("cluster: not converged after %v: %w", timeout, err)
		}
		var silent error
		for _, rep := range c.Replicas() {
			rep.WithQuiesced(func() {
				if diffs := CompareDevices(repl.dev, rep.Device()); len(diffs) > 0 && silent == nil {
					silent = &SilentDivergence{Replica: rep.Name(), Seq: seq, Diffs: diffs}
				}
			})
		}
		if repl.lastSeq() == seq {
			return silent
		}
	}
	return fmt.Errorf("cluster: not converged after %v: the primary is still logging", timeout)
}

// Replicas returns the current replica appliers.
func (c *Cluster) Replicas() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Replica
	for _, n := range c.nodes {
		if n.role == roleReplica {
			out = append(out, n.rep)
		}
	}
	return out
}

// DialPrimary connects a client to the current primary. During a failover
// window (primary dead, successor not yet promoted) it fails; failover
// clients retry until the new primary listens.
func (c *Cluster) DialPrimary() (fileserver.Conn, error) {
	c.mu.Lock()
	p := c.nodes[c.primaryIdx]
	lst := p.clientLst
	dead := p.role != rolePrimary || c.closed
	c.mu.Unlock()
	if dead || lst == nil {
		return nil, fileserver.ErrShutdown
	}
	return lst.Dial()
}

// Partition cuts (or heals) the replication network: active links are
// severed and, while cut, redials fail. The client-facing side is
// untouched — the primary keeps serving, degrading loudly.
func (c *Cluster) Partition(cut bool) {
	c.partitioned.Store(cut)
	c.mu.Lock()
	p := c.nodes[c.primaryIdx]
	repl := p.repl
	c.mu.Unlock()
	if cut && repl != nil {
		repl.SeverLinks()
	}
	c.cfg.Logf("cluster: replication partition=%v", cut)
}

// KillPrimary crashes the current primary abruptly: replication hooks are
// detached, the client listener closes and every session connection dies
// mid-whatever-it-was-doing. The device image is left exactly as the
// crash left it — the divergence checker's raw material. Returns the dead
// node's device.
func (c *Cluster) KillPrimary() *pmem.Device {
	c.mu.Lock()
	p := c.nodes[c.primaryIdx]
	if p.role != rolePrimary {
		c.mu.Unlock()
		return p.dev
	}
	p.role = roleDead
	repl := p.repl
	srv := p.srv
	lst := p.clientLst
	done := p.serveDone
	c.mu.Unlock()

	c.cfg.Logf("cluster: killing primary %s (epoch %d)", p.name, repl.Epoch())
	// Client side dies first: once sessions are severed no more acks can
	// escape, so every acknowledged write has already cleared its
	// synchronous-replication wait. (Replication torn down first would
	// open a window where the server acks writes that never replicate —
	// acknowledged-write loss the failover clients would then observe.)
	if lst != nil {
		lst.Close()
	}
	// Server shutdown severs sessions; clients see ErrServerGone. The
	// served FS dies with the "process" — its device image stays put.
	srv.Shutdown()
	if done != nil {
		<-done
	}
	repl.Close()
	return p.dev
}

// FailOver promotes the most caught-up replica to primary under a bumped
// epoch. The old primary must already be dead or partitioned (a live,
// reachable primary is not failed over — callers model the failure first).
// Every remaining replica is re-linked to the new primary; their stale
// sequence spaces force resyncs via the hello handshake. A dead old
// primary can be rejoined as a replica with RejoinDead.
func (c *Cluster) FailOver(ctx *sim.Ctx) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: closed")
	}
	var successor *node
	var best uint64
	for _, n := range c.nodes {
		if n.role != roleReplica {
			continue
		}
		// A mid-resync replica holds a wiped device with a partial
		// snapshot — never a promotion candidate, whatever its seq says.
		if !n.rep.Promotable() {
			continue
		}
		if s := n.rep.AppliedSeq(); successor == nil || s > best {
			successor, best = n, s
		}
	}
	if successor == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no in-sync replica to promote")
	}
	c.epoch++
	c.failovers++
	epoch := c.epoch
	c.mu.Unlock()

	c.cfg.Logf("cluster: failing over to %s at applied seq %d, epoch %d", successor.name, best, epoch)
	// Stop accepting replication: a stale primary reconnecting after the
	// promotion must find a server that fences, not an applier. Closing
	// the listener makes its dials fail; the epoch check fences any link
	// already established.
	successor.replLst.Close()
	fs, err := successor.rep.Promote(ctx, c.cfg.FSOpts)
	if err != nil {
		return fmt.Errorf("cluster: promote %s: %w", successor.name, err)
	}

	c.mu.Lock()
	for i, n := range c.nodes {
		if n == successor {
			c.primaryIdx = i
		}
	}
	c.mu.Unlock()
	c.startPrimary(ctx, successor, fs)
	return nil
}

// RejoinDead turns a dead ex-primary into a replica of the current
// primary. Its diverged image is detected by the hello handshake (its
// applied prefix is from an older epoch's sequence space) and resynced —
// the split-brain heal path.
func (c *Cluster) RejoinDead(name string) error {
	c.mu.Lock()
	var target *node
	for _, n := range c.nodes {
		if n.name == name {
			target = n
		}
	}
	p := c.nodes[c.primaryIdx]
	c.mu.Unlock()
	if target == nil {
		return fmt.Errorf("cluster: no node %q", name)
	}
	if target.role != roleDead {
		return fmt.Errorf("cluster: node %q is not dead", name)
	}
	if p.role != rolePrimary || p.repl == nil {
		return fmt.Errorf("cluster: no live primary to rejoin")
	}
	c.startReplica(target)
	p.repl.AddReplica(target.name, c.replDial(target))
	c.cfg.Logf("cluster: %s rejoined as replica", name)
	return nil
}

// Stats aggregates cluster-level counters with the current primary's
// replicator stats (zero value when the primary is dead).
type Stats struct {
	Epoch       uint64
	Failovers   int64
	Repl        ReplicatorStats
	ReplicaSide []ReplicaStats
}

// Stats snapshots the cluster.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	p := c.nodes[c.primaryIdx]
	st := Stats{Epoch: c.epoch, Failovers: c.failovers}
	var repl *Replicator
	if p.role == rolePrimary {
		repl = p.repl
	}
	var reps []*Replica
	for _, n := range c.nodes {
		if n.role == roleReplica {
			reps = append(reps, n.rep)
		}
	}
	c.mu.Unlock()
	if repl != nil {
		st.Repl = repl.Stats()
	}
	for _, r := range reps {
		st.ReplicaSide = append(st.ReplicaSide, r.Stats())
	}
	return st
}

// Shutdown stops everything: the primary drains (bounded), replicas'
// listeners close.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := c.nodes
	c.mu.Unlock()
	for _, n := range nodes {
		if n.role == rolePrimary {
			n.repl.Close()
			n.clientLst.Close()
			n.srv.Shutdown()
			<-n.serveDone
		}
		if n.replLst != nil {
			n.replLst.Close()
		}
	}
}
