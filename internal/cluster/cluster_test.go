package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

func newTestCluster(t *testing.T, replicas int, rcfg ReplicatorConfig) (*Cluster, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	c, err := New(ctx, Config{
		Replicas:   replicas,
		DeviceSize: 128 << 20,
		Repl:       rcfg,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Shutdown)
	return c, ctx
}

// dialClient opens a client session on the cluster's primary, closed when
// the test ends.
func dialClient(t *testing.T, c *Cluster) *fileserver.Client {
	t.Helper()
	conn, err := c.DialPrimary()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
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
			t.Fatalf("%s: content mismatch", path)
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
	cli := dialClient(t, c)
	if e := c.Stats().Repl.Epoch; e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
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

// TestPromoteReplica runs winefsd's promotion on a synchronous cluster:
// kill the primary, stop the most caught-up replica, mount its image and
// start a primary on it at epoch 2. The files acked before the kill read
// back through a fresh client, new writes land and reach the remaining
// replica, the new primary announces epoch 2, and that replica now fences
// an epoch-1 primary.
func TestPromoteReplica(t *testing.T) {
	c, ctx := newTestCluster(t, 2, ReplicatorConfig{Sync: true})
	cli := dialClient(t, c)
	writeFiles(t, ctx, cli, 6, 'a')

	c.KillPrimary()
	rep, err := c.StopReplica()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := winefs.Mount(ctx, rep.Device(), winefs.Options{})
	if err != nil {
		t.Fatalf("mount %s's image: %v", rep.Name(), err)
	}
	c.StartPrimary(ctx, fs, 2)

	cli = dialClient(t, c)
	if e := c.Stats().Repl.Epoch; e != 2 {
		t.Fatalf("the promoted primary announces epoch %d, want 2", e)
	}
	verifyFiles(t, ctx, cli, 6, 'a')
	writeFiles(t, ctx, cli, 4, 'x')
	verifyFiles(t, ctx, cli, 4, 'x')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// An epoch-1 replication hello to the remaining replica is rejected.
	c.mu.Lock()
	remaining := c.replicas[0]
	c.mu.Unlock()
	conn, err := remaining.lst.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e fileserver.Enc
	e.Str("stale")
	e.I64(rep.Device().Size())
	e.U64(1)
	if err := fileserver.WriteFrame(conn, 1, repHello, e.B); err != nil {
		t.Fatal(err)
	}
	if _, code, _, err := fileserver.ReadFrame(conn); err != nil || code != repReject {
		t.Fatalf("epoch-1 hello to %s: frame %d, %v; want a reject", remaining.rep.Name(), code, err)
	}
}

// TestReplicaStopFreezesDevice: a synchronous primary keeps writing while
// a replica stops. Once Stop returns the replica's device must not change
// and its applied sequence must not move: winefsd saves, and an operator
// promotes, exactly that image.
func TestReplicaStopFreezesDevice(t *testing.T) {
	c, ctx := newTestCluster(t, 1, ReplicatorConfig{Sync: true, SyncTimeout: 50 * time.Millisecond})
	cli := dialClient(t, c)
	writeFiles(t, ctx, cli, 2, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		wctx := sim.NewCtx(2, 0)
		for i := 0; i < 40; i++ {
			f, err := cli.Create(wctx, fmt.Sprintf("/w-%02d", i))
			if err == nil {
				_, err = f.Append(wctx, pattern('w', i, 3000))
			}
			if err == nil {
				err = f.Close(wctx)
			}
			if err != nil {
				t.Errorf("write /w-%02d: %v", i, err)
				return
			}
		}
	}()
	writeFiles(t, ctx, cli, 2, 'b')
	rep, err := c.StopReplica()
	if err != nil {
		t.Fatal(err)
	}
	frozen := rep.Device().Snapshot()
	defer frozen.Release()
	seq := rep.AppliedSeq()
	writeFiles(t, ctx, cli, 4, 'c')
	<-done

	if diffs := CompareDevices(frozen, rep.Device()); len(diffs) > 0 {
		t.Fatalf("the stopped replica's device changed in %d ranges, first at %d (+%d)", len(diffs), diffs[0].Off, diffs[0].Len)
	}
	if got := rep.AppliedSeq(); got != seq {
		t.Fatalf("the stopped replica applied seq %d → %d", seq, got)
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
	cli := dialClient(t, c)

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
	cli := dialClient(t, c)
	writeFiles(t, ctx, cli, 4, 'a')
	if err := c.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	rep := c.Replicas()[1]
	const off = 12345
	var b [1]byte
	_, fs := c.Primary()
	fs.Device().ReadAt(b[:], off)
	b[0] ^= 0xFF
	rep.WithQuiesced(func() { rep.Device().WriteAt(b[:], off) })

	const timeout = 10 * time.Second
	start := time.Now()
	err := c.AwaitConverged(timeout)
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
