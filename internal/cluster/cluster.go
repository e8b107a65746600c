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

// Config sizes an in-process cluster: winefsd's primary and -replica-of
// daemons on in-memory pipes instead of TCP, for tests, the fault campaign
// and winebench -replicated. Both stand a primary up with NewPrimary and
// end a replica with Replica.Stop.
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
	// Repl configures the replication engine (StartPrimary sets Epoch).
	Repl ReplicatorConfig
	// WrapReplConn, when non-nil, wraps the primary side of each
	// replication connection — the fault campaign's torn-stream hook.
	WrapReplConn func(replica string, c fileserver.Conn) fileserver.Conn
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.DeviceSize <= 0 {
		c.DeviceSize = 256 << 20
	}
	return c
}

// primaryNode is the serving primary: its mount, server, client listener
// and replicator (nil with no replicas).
type primaryNode struct {
	fs   *winefs.FS
	srv  *fileserver.Server
	repl *Replicator
	lst  *fileserver.PipeListener
	done chan struct{} // closed when Serve returns
}

// replicaNode is one replica daemon: its applier and replication listener.
type replicaNode struct {
	rep *Replica
	lst *fileserver.PipeListener
}

// stop is the replica daemon's shutdown: no more links, then Replica.Stop.
func (n replicaNode) stop() {
	n.lst.Close()
	n.rep.Stop()
}

// Cluster wires a primary winefsd and N replicas over in-memory pipes:
// clients dial the primary (DialPrimary), and the primary streams its write
// log to every replica. A promotion is the one winefsd ships: KillPrimary,
// StopReplica, winefs.Mount the stopped replica's device, and StartPrimary
// on it at the next epoch.
type Cluster struct {
	cfg Config

	mu          sync.Mutex
	primary     *primaryNode // nil from KillPrimary to the next StartPrimary
	replicas    []replicaNode
	partitioned atomic.Bool
	closed      bool
}

// New builds and starts the cluster: a formatted (Mkfs) primary at epoch 1
// and empty replicas node1..nodeN (their first hello triggers a resync,
// which for a fresh image is cheap).
func New(ctx *sim.Ctx, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg}
	fs, err := winefs.Mkfs(ctx, pmem.New(cfg.DeviceSize), cfg.FSOpts)
	if err != nil {
		return nil, fmt.Errorf("cluster: mkfs: %w", err)
	}
	for i := 1; i <= cfg.Replicas; i++ {
		c.AddReplica(fmt.Sprintf("node%d", i), pmem.New(cfg.DeviceSize))
	}
	c.StartPrimary(ctx, fs, 1)
	return c, nil
}

// AddReplica starts a replica named name that applies to dev, as winefsd
// -replica-of -img starts on an image. The next StartPrimary links it.
func (c *Cluster) AddReplica(name string, dev *pmem.Device) {
	n := replicaNode{rep: NewReplica(name, dev, nil), lst: fileserver.NewPipeListener()}
	c.mu.Lock()
	c.replicas = append(c.replicas, n)
	c.mu.Unlock()
	go n.rep.Serve(n.lst)
}

// StartPrimary serves fs, a mounted image, as the primary at epoch, linked
// to every replica through NewPrimary, as winefsd restarts on a promoted
// image with -epoch and -replicas.
func (c *Cluster) StartPrimary(ctx *sim.Ctx, fs *winefs.FS, epoch uint64) {
	c.mu.Lock()
	targets := make([]Target, len(c.replicas))
	for i, n := range c.replicas {
		targets[i] = Target{Name: n.rep.Name(), Dial: c.replDial(n)}
	}
	c.mu.Unlock()
	scfg := c.cfg.Server
	scfg.BaseNS = ctx.Now()
	srv, repl := NewPrimary(fs, epoch, scfg, c.cfg.Repl, targets)
	p := &primaryNode{fs: fs, srv: srv, repl: repl, lst: fileserver.NewPipeListener(), done: make(chan struct{})}
	c.mu.Lock()
	c.primary = p
	c.mu.Unlock()
	go func() {
		srv.Serve(p.lst)
		close(p.done)
	}()
}

// replDial builds the primary-side dial function for one replica,
// honouring partition injection and the torn-stream wrapper.
func (c *Cluster) replDial(target replicaNode) func() (fileserver.Conn, error) {
	return func() (fileserver.Conn, error) {
		if c.partitioned.Load() {
			return nil, fmt.Errorf("cluster: replication partitioned")
		}
		conn, err := target.lst.Dial()
		if err != nil {
			return nil, err
		}
		if c.cfg.WrapReplConn != nil {
			conn = c.cfg.WrapReplConn(target.rep.Name(), conn)
		}
		return conn, nil
	}
}

// Primary returns the primary's replicator (nil with no replicas) and FS,
// or nil, nil while there is no primary.
func (c *Cluster) Primary() (*Replicator, *winefs.FS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.primary == nil {
		return nil, nil
	}
	return c.primary.repl, c.primary.fs
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
	repl, fs := c.Primary()
	if fs == nil {
		return fmt.Errorf("cluster: no live primary")
	}
	if repl == nil {
		return nil // nothing replicates
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

// Replicas returns the replica appliers.
func (c *Cluster) Replicas() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Replica, len(c.replicas))
	for i, n := range c.replicas {
		out[i] = n.rep
	}
	return out
}

// DialPrimary connects a client to the primary; it fails with
// fileserver.ErrShutdown while there is none.
func (c *Cluster) DialPrimary() (fileserver.Conn, error) {
	c.mu.Lock()
	p := c.primary
	closed := c.closed
	c.mu.Unlock()
	if p == nil || closed {
		return nil, fileserver.ErrShutdown
	}
	return p.lst.Dial()
}

// Partition cuts (or heals) the replication network: active links are
// severed and, while cut, redials fail. The client-facing side is
// untouched — the primary keeps serving, degrading loudly.
func (c *Cluster) Partition(cut bool) {
	c.partitioned.Store(cut)
	if repl, _ := c.Primary(); cut && repl != nil {
		repl.SeverLinks()
	}
}

// KillPrimary is the in-process kill -9 of the primary winefsd: the client
// listener closes, every session is severed, the replicator closes, and
// nothing is unmounted. Clients see transport errors from then on. It
// returns the dead primary's device, exactly as the crash left it (nil if
// there was no primary).
func (c *Cluster) KillPrimary() *pmem.Device {
	c.mu.Lock()
	p := c.primary
	c.primary = nil
	c.mu.Unlock()
	if p == nil {
		return nil
	}
	// Client side dies first: once sessions are severed no more acks can
	// escape, so every acknowledged write has already cleared its
	// synchronous-replication wait. (Replication torn down first would
	// open a window where the server acks writes that never replicate.)
	p.lst.Close()
	p.srv.Shutdown()
	<-p.done
	if p.repl != nil {
		p.repl.Close()
	}
	return p.fs.Device()
}

// StopReplica stops the replica an operator promotes — the promotable one
// with the highest applied sequence — and takes it out of the cluster: its
// listener closes and Replica.Stop runs, so its device is final.
func (c *Cluster) StopReplica() (*Replica, error) {
	c.mu.Lock()
	best := -1
	for i, n := range c.replicas {
		if n.rep.Promotable() && (best < 0 || n.rep.AppliedSeq() > c.replicas[best].rep.AppliedSeq()) {
			best = i
		}
	}
	if best < 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: no promotable replica")
	}
	n := c.replicas[best]
	c.replicas = append(c.replicas[:best:best], c.replicas[best+1:]...)
	c.mu.Unlock()
	n.stop()
	return n.rep, nil
}

// Stats snapshots the primary's replicator (zero value while there is none)
// and every replica's applier.
type Stats struct {
	Repl        ReplicatorStats
	ReplicaSide []ReplicaStats
}

// Stats snapshots the cluster.
func (c *Cluster) Stats() Stats {
	var st Stats
	if repl, _ := c.Primary(); repl != nil {
		st.Repl = repl.Stats()
	}
	for _, r := range c.Replicas() {
		st.ReplicaSide = append(st.ReplicaSide, r.Stats())
	}
	return st
}

// Shutdown stops everything: the primary drains (bounded), and every
// replica stops.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	p := c.primary
	replicas := c.replicas
	c.mu.Unlock()
	if p != nil {
		if p.repl != nil {
			p.repl.Close()
		}
		p.lst.Close()
		p.srv.Shutdown()
		<-p.done
	}
	for _, n := range replicas {
		n.stop()
	}
}
