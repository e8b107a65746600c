package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fileserver"
	"repro/internal/pagecache"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newTestCluster(t *testing.T, replicas int, rcfg ReplicatorConfig) (*Cluster, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	c, err := New(ctx, Config{
		Replicas:   replicas,
		DeviceSize: 128 << 20,
		Repl:       rcfg,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Shutdown)
	return c, ctx
}

func pattern(tag byte, i, n int) []byte {
	data := make([]byte, n)
	for j := range data {
		data[j] = tag + byte(i)*7 + byte(j%13)
	}
	return data
}

func writeFiles(t *testing.T, ctx *sim.Ctx, fs vfs.FS, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/f-%c-%02d", tag, i)
		f, err := fs.Create(ctx, path)
		if err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		data := pattern(tag, i, 3000)
		if _, err := f.Append(ctx, data); err != nil {
			t.Fatalf("append %s: %v", path, err)
		}
		if err := f.Fsync(ctx); err != nil {
			t.Fatalf("fsync %s: %v", path, err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}
}

func verifyFiles(t *testing.T, ctx *sim.Ctx, fs vfs.FS, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/f-%c-%02d", tag, i)
		f, err := fs.Open(ctx, path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		want := pattern(tag, i, 3000)
		got := make([]byte, len(want))
		if _, err := f.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch after failover", path)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}
}

// TestClusterBasicReplication: a synchronous 1-primary/2-replica cluster
// whose replicas end byte-identical to the primary after a write burst
// (including the Mkfs baseline they never saw live, via initial resync).
func TestClusterBasicReplication(t *testing.T) {
	c, ctx := newTestCluster(t, 2, ReplicatorConfig{Sync: true})
	conn, err := c.DialPrimary()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()
	if cli.ServerEpoch() != 1 {
		t.Fatalf("epoch = %d, want 1", cli.ServerEpoch())
	}

	writeFiles(t, ctx, cli, 8, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Repl.RecordsLogged == 0 || st.Repl.BytesLogged == 0 {
		t.Fatalf("no replication traffic logged: %+v", st.Repl)
	}
	if st.Repl.Resyncs < 2 {
		t.Fatalf("expected one baseline resync per replica, got %d", st.Repl.Resyncs)
	}
	for _, rs := range st.ReplicaSide {
		if rs.BadRecords != 0 {
			t.Fatalf("replica reported %d bad records on a clean stream", rs.BadRecords)
		}
	}
}

// TestClusterFailoverTransparent: kill the primary, promote a replica, and
// keep using the same FailoverClient — pre-failover files must read back
// intact and new writes must land, without the caller seeing an error.
func TestClusterFailoverTransparent(t *testing.T) {
	c, ctx := newTestCluster(t, 2, ReplicatorConfig{Sync: true})
	fc, err := DialFailover(c.DialPrimary)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	writeFiles(t, ctx, fc, 6, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.KillPrimary()
	if err := c.FailOver(ctx); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got := c.Epoch(); got != 2 {
		t.Fatalf("cluster epoch = %d, want 2", got)
	}

	verifyFiles(t, ctx, fc, 6, 'a')
	writeFiles(t, ctx, fc, 4, 'x')
	verifyFiles(t, ctx, fc, 4, 'x')

	if fc.Failovers() == 0 {
		t.Fatal("client reports zero failovers after the primary died")
	}
	if fc.Epoch() != 2 {
		t.Fatalf("client epoch = %d, want 2", fc.Epoch())
	}
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverLeaseReestablished (satellite): a page-cache lease taken
// before the failover is silently re-established on the new primary.
func TestFailoverLeaseReestablished(t *testing.T) {
	c, ctx := newTestCluster(t, 1, ReplicatorConfig{Sync: true})
	fc, err := DialFailover(c.DialPrimary)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cache := pagecache.New(fc, pagecache.Config{})

	f, err := cache.Create(ctx, "/leased")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	data := pattern('L', 0, 8192)
	if _, err := f.Append(ctx, data); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(ctx, buf, 0); err != nil {
		t.Fatalf("read: %v", err)
	}

	leaseMode := func() uint8 {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		for ff := range fc.files {
			if ff.path == "/leased" {
				ff.mu.Lock()
				defer ff.mu.Unlock()
				return ff.lease
			}
		}
		return 0
	}
	if leaseMode() == 0 {
		t.Fatal("page cache took no lease before failover")
	}

	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.KillPrimary()
	if err := c.FailOver(ctx); err != nil {
		t.Fatalf("failover: %v", err)
	}

	// Force a server round-trip so the client notices the dead primary.
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("fsync after failover: %v", err)
	}
	if got := fc.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if leaseMode() == 0 {
		t.Fatal("lease was not re-established on the new primary")
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("leased file content changed across failover")
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestClusterDegradedMode: a replication partition must not block the
// primary — synchronous writes time out into degraded mode, loudly, and
// the replica converges again (via resync) once the partition heals.
func TestClusterDegradedMode(t *testing.T) {
	c, ctx := newTestCluster(t, 1, ReplicatorConfig{
		Sync:         true,
		SyncTimeout:  100 * time.Millisecond,
		DegradeAfter: 2,
		RetryMin:     5 * time.Millisecond,
		RetryMax:     20 * time.Millisecond,
		AckTimeout:   200 * time.Millisecond,
	})
	conn, err := c.DialPrimary()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()

	writeFiles(t, ctx, cli, 2, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Partition(true)
	writeFiles(t, ctx, cli, 2, 'p') // must complete despite the partition

	repl, _ := c.Primary()
	if reason, ok := repl.Degraded(); !ok {
		t.Fatal("replicator not degraded during partition")
	} else {
		t.Logf("degraded: %s", reason)
	}
	if st := repl.Stats(); st.Degrades == 0 {
		t.Fatalf("no degrade recorded: %+v", st)
	}

	c.Partition(false)
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyFiles(t, ctx, cli, 2, 'p')
}

// TestClusterSilentDivergenceNamed: a byte the stream never carried, on a
// replica that has acked every sequence, is a silent divergence that
// AwaitConverged names at once, replica and offset, instead of waiting
// out its timeout.
func TestClusterSilentDivergenceNamed(t *testing.T) {
	c, ctx := newTestCluster(t, 2, ReplicatorConfig{Sync: true})
	conn, err := c.DialPrimary()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()
	writeFiles(t, ctx, cli, 4, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	rep := c.Replicas()[1]
	const off = 12345
	var b [1]byte
	c.PrimaryDevice().ReadAt(b[:], off)
	b[0] ^= 0xFF
	rep.WithQuiesced(func() { rep.Device().WriteAt(b[:], off) })

	const timeout = 10 * time.Second
	start := time.Now()
	err = c.AwaitConverged(timeout)
	took := time.Since(start)
	var silent *SilentDivergence
	if !errors.As(err, &silent) {
		t.Fatalf("AwaitConverged = %v, want a silent divergence", err)
	}
	t.Logf("%v (after %v)", err, took)
	if silent.Replica != rep.Name() || silent.Diffs[0] != (Diff{Off: off, Len: 1}) {
		t.Fatalf("silent divergence names %s at %+v, want %s at %d (+1)", silent.Replica, silent.Diffs[0], rep.Name(), off)
	}
	if took > timeout/2 {
		t.Fatalf("the verdict took %v of a %v timeout", took, timeout)
	}
}

// TestReplicaResyncResumesAfterDrop: a baseline resync whose first data
// frame is lost leaves the replica wiped mid-resync. The broken resync must
// not be forgotten: the link resyncs again, and the replica ends promotable
// and byte-identical to the primary.
func TestReplicaResyncResumesAfterDrop(t *testing.T) {
	var dropped atomic.Bool
	ctx := sim.NewCtx(1, 0)
	c, err := New(ctx, Config{
		Replicas:   1,
		DeviceSize: 128 << 20,
		Repl:       ReplicatorConfig{AckTimeout: 100 * time.Millisecond},
		WrapReplConn: func(_ string, conn fileserver.Conn) fileserver.Conn {
			return &dropResyncConn{Conn: conn, dropped: &dropped}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Shutdown)

	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("no resync frame was dropped")
	}
	if !c.Replicas()[0].Promotable() {
		t.Fatal("converged replica is not promotable")
	}
}

// dropResyncConn swallows the first resync data frame written through it
// (a repRecords frame with id 0); the sender then times out on the ack.
type dropResyncConn struct {
	fileserver.Conn
	dropped *atomic.Bool
}

func (c *dropResyncConn) Write(p []byte) (int, error) {
	id, code, _, err := fileserver.ReadFrame(bytes.NewReader(p))
	if err == nil && code == repRecords && id == 0 && c.dropped.CompareAndSwap(false, true) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}
