package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fileserver"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/winefs"
)

// LinkState is a replica link's lifecycle position.
type LinkState int32

const (
	// LinkConnecting: dialing or backing off between attempts.
	LinkConnecting LinkState = iota
	// LinkStreaming: connected and shipping records.
	LinkStreaming
	// LinkDegraded: too many consecutive failures or a durability-wait
	// timeout; the primary keeps serving and keeps retrying, but no
	// longer counts this replica towards synchronous durability.
	LinkDegraded
	// LinkFenced: the replica rejected us as a stale primary. Terminal —
	// a fenced primary must never be trusted with this replica again.
	LinkFenced
	// LinkStopped: the replicator shut down.
	LinkStopped
)

func (s LinkState) String() string {
	switch s {
	case LinkConnecting:
		return "connecting"
	case LinkStreaming:
		return "streaming"
	case LinkDegraded:
		return "degraded"
	case LinkFenced:
		return "fenced"
	case LinkStopped:
		return "stopped"
	}
	return fmt.Sprintf("state%d", int32(s))
}

const (
	// ringRecords bounds the in-memory record ring (the bounded
	// replication queue). A replica that falls behind by more than the
	// ring is resynced from a device snapshot rather than buffering
	// without limit.
	ringRecords = 16384
	// batchRecords / batchBytes bound one repRecords frame.
	batchRecords = 256
	batchBytes   = 1 << 20
	// replLatencyNS and replNSPerByte price replication in virtual time:
	// every mutating request is charged replLatencyNS + bytes*replNSPerByte
	// when Sync is on, whether or not the wall-clock wait was long (one
	// round trip to a DRAM-speed peer).
	replLatencyNS = 1200
	replNSPerByte = 0.25
)

// ReplicatorConfig tunes a primary's replication engine. All durations are
// wall-clock: replication liveness (like the lease RevokeTimeout) is a
// property of the real execution, not of simulated time.
type ReplicatorConfig struct {
	// Epoch is this primary's incarnation number, announced in every
	// hello and checked by replicas against newer primaries.
	Epoch uint64
	// HeartbeatEvery is the idle interval after which a heartbeat probes
	// the link. Default 50ms.
	HeartbeatEvery time.Duration
	// AckTimeout bounds the wait for a replica's ack before the link is
	// declared dead and redialed. Default 2s.
	AckTimeout time.Duration
	// RetryMin/RetryMax bound the exponential backoff between dial
	// attempts; each delay gets ±50% deterministic jitter. Defaults
	// 5ms / 500ms.
	RetryMin time.Duration
	RetryMax time.Duration
	// DegradeAfter is the consecutive-failure count that flips a link to
	// LinkDegraded (retrying continues forever regardless). Default 4.
	DegradeAfter int
	// Sync, when true, makes mutating requests wait (via the server's
	// PostMutate hook) until every live replica has acked the mutation's
	// records — synchronous replication. Timeouts degrade laggards
	// instead of blocking the client forever.
	Sync bool
	// SyncTimeout bounds one synchronous-durability wait. Default 2s.
	SyncTimeout time.Duration
	// Seed feeds the jitter RNG (deterministic backoff schedules).
	Seed uint64
	// Logf (nil for silent) receives degradation/divergence events.
	Logf func(string, ...any)
}

func (c ReplicatorConfig) withDefaults() ReplicatorConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 500 * time.Millisecond
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 4
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// LinkStats snapshots one replica link.
type LinkStats struct {
	Name       string
	State      string
	AppliedSeq uint64
	// Lag is the record count the replica trails the primary by.
	Lag     uint64
	Retries int64
	Resyncs int64
}

// ReplicatorStats aggregates the engine.
type ReplicatorStats struct {
	Epoch uint64
	// RecordsLogged counts records appended to the ring — a pure function
	// of the workload, so benchmarks can gate it exactly.
	RecordsLogged int64
	BytesLogged   int64
	Commits       int64
	// RecordsStreamed counts records actually sent (includes retries and
	// resync records, so it is timing-dependent).
	RecordsStreamed int64
	BytesStreamed   int64
	Retries         int64
	Resyncs         int64
	RingOverruns    int64
	Degrades        int64
	Heartbeats      int64
	SyncWaits       int64
	SyncTimeouts    int64
	Links           []LinkStats
}

// link is the per-replica sender state. cursor/appliedSeq/state are
// guarded by the replicator mutex; the sender goroutine owns the conn.
type link struct {
	name string
	dial func() (fileserver.Conn, error)

	state      LinkState
	cursor     uint64 // next seq to send
	appliedSeq uint64 // last acked
	needResync bool
	retries    int64
	resyncs    int64

	wake chan struct{} // 1-buffered nudge when records arrive
	conn fileserver.Conn
}

// Replicator taps a primary's device + journal and streams the mutation
// record log to its replicas. Install with Attach, which wires the
// pmem.WriteObserver and winefs.CommitHook; Detach unwires them (the
// primary "crashing" or being fenced).
type Replicator struct {
	dev *pmem.Device
	fs  *winefs.FS
	cfg ReplicatorConfig

	mu   sync.Mutex
	cond *sync.Cond // broadcast on ack progress and shutdown
	// ring[i] holds seq start+i+1... in ring order; start is the seq of
	// the oldest retained record minus one (i.e. records (start, next)
	// are retained, next is the next seq to assign).
	ring    []Record
	ringOff int // index of the oldest record
	start   uint64
	next    uint64
	links   []*link
	closed  bool
	stats   ReplicatorStats

	wg sync.WaitGroup
}

// NewReplicator builds the engine for a mounted primary fs. Call Attach to
// start observing and AddReplica per replica before Attach (links added
// later start streaming immediately).
func NewReplicator(fs *winefs.FS, cfg ReplicatorConfig) *Replicator {
	r := &Replicator{
		dev:  fs.Device(),
		fs:   fs,
		cfg:  cfg.withDefaults(),
		next: 1,
	}
	r.cond = sync.NewCond(&r.mu)
	r.ring = make([]Record, 0, ringRecords)
	return r
}

// Epoch returns the primary epoch this replicator announces.
func (r *Replicator) Epoch() uint64 { return r.cfg.Epoch }

// AddReplica registers a replica endpoint and starts its sender.
func (r *Replicator) AddReplica(name string, dial func() (fileserver.Conn, error)) {
	l := &link{
		name: name,
		dial: dial,
		// A new link's replica image is unknown to this primary (empty,
		// stale, or from another epoch's sequence space), and the primary's
		// own pre-Attach writes — Mkfs at the very least — were never
		// logged. The first conversation therefore always baselines with a
		// snapshot resync; stream-position tracking takes over from there.
		needResync: true,
		cursor:     1,
		wake:       make(chan struct{}, 1),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.links = append(r.links, l)
	r.wg.Add(1)
	r.mu.Unlock()
	go r.sender(l)
}

// Attach starts observing the primary's device and journal. The device
// snapshot taken by any subsequent resync is ordered after every record
// already in the ring, so Attach must run before the FS serves traffic.
func (r *Replicator) Attach() {
	r.fs.SetCommitHook(func(txid uint64) {
		r.append(Record{Type: RecCommit, Off: int64(txid)})
		r.mu.Lock()
		r.stats.Commits++
		r.mu.Unlock()
	})
	r.dev.SetWriteObserver(r)
}

// Detach stops observing (the hooks become no-ops). Streaming of already
// logged records continues until Close.
func (r *Replicator) Detach() {
	r.dev.SetWriteObserver(nil)
	r.fs.SetCommitHook(nil)
}

// ObserveWrite implements pmem.WriteObserver.
func (r *Replicator) ObserveWrite(off int64, data []byte) {
	// Records cap their payload; split rare giant stores.
	for len(data) > 0 {
		n := len(data)
		if n > maxRecData {
			n = maxRecData
		}
		r.append(Record{Type: RecStore, Off: off, N: int64(n), Data: append([]byte(nil), data[:n]...)})
		off += int64(n)
		data = data[n:]
	}
}

// ObserveZero implements pmem.WriteObserver.
func (r *Replicator) ObserveZero(off, n int64) {
	r.append(Record{Type: RecZero, Off: off, N: n})
}

// ObserveDiscard implements pmem.WriteObserver.
func (r *Replicator) ObserveDiscard(off, n int64) {
	r.append(Record{Type: RecDiscard, Off: off, N: n})
}

// append assigns the next sequence number and retains the record in the
// bounded ring. When the ring is full the oldest record is dropped and
// every link still needing it is marked for resync — bounded memory, never
// unbounded buffering.
func (r *Replicator) append(rec Record) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	rec.Seq = r.next
	r.next++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		// Overwrite the oldest slot.
		evicted := r.start + 1
		r.ring[r.ringOff] = rec
		r.ringOff = (r.ringOff + 1) % len(r.ring)
		r.start = evicted
		r.stats.RingOverruns++
		for _, l := range r.links {
			if l.cursor <= evicted && !l.needResync && l.state != LinkFenced {
				l.needResync = true
				r.cfg.Logf("replicator: %s overran the ring at seq %d; resync scheduled", l.name, evicted)
			}
		}
	}
	r.stats.RecordsLogged++
	r.stats.BytesLogged += int64(len(rec.Data))
	links := r.links
	r.mu.Unlock()
	for _, l := range links {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// recordAt returns the retained record with the given seq; the caller must
// hold r.mu and guarantee start < seq < next.
func (r *Replicator) recordAt(seq uint64) *Record {
	idx := (r.ringOff + int(seq-r.start-1)) % len(r.ring)
	return &r.ring[idx]
}

// Stats snapshots the engine.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Epoch = r.cfg.Epoch
	st.Links = make([]LinkStats, 0, len(r.links))
	for _, l := range r.links {
		st.Links = append(st.Links, LinkStats{
			Name:       l.name,
			State:      l.state.String(),
			AppliedSeq: l.appliedSeq,
			Lag:        r.next - 1 - l.appliedSeq,
			Retries:    l.retries,
			Resyncs:    l.resyncs,
		})
	}
	return st
}

// Degraded reports whether any link is degraded or fenced — the primary is
// serving without full redundancy.
func (r *Replicator) Degraded() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		if l.state == LinkDegraded || l.state == LinkFenced {
			return fmt.Sprintf("replica %s %s", l.name, l.state), true
		}
	}
	return "", false
}

// PostMutate is the fileserver.Config hook: it charges the deterministic
// virtual cost of replicating bytes and, in Sync mode, wall-waits until
// every live replica has acked everything logged so far.
func (r *Replicator) PostMutate(ctx *sim.Ctx, bytes int64) {
	if !r.cfg.Sync {
		return
	}
	// Virtual cost is charged unconditionally and deterministically; the
	// wall wait below affects only real time.
	ctx.Advance(replLatencyNS + int64(float64(bytes)*replNSPerByte))
	r.mu.Lock()
	target := r.next - 1
	r.stats.SyncWaits++
	r.mu.Unlock()
	r.WaitDurable(target, r.cfg.SyncTimeout)
}

// WaitDurable blocks until every non-degraded, non-fenced link has acked
// seq, or the timeout expires — in which case the laggards are degraded
// (the degraded-mode contract: availability over redundancy, loudly).
// It reports whether full durability was reached in time.
func (r *Replicator) WaitDurable(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timedOut := false
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		timedOut = true
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer timer.Stop()

	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		pending := 0
		for _, l := range r.links {
			if l.state == LinkDegraded || l.state == LinkFenced || l.state == LinkStopped {
				continue
			}
			if l.appliedSeq < seq {
				pending++
			}
		}
		if pending == 0 || r.closed {
			return pending == 0
		}
		if timedOut || !time.Now().Before(deadline) {
			for _, l := range r.links {
				if l.state != LinkDegraded && l.state != LinkFenced && l.state != LinkStopped && l.appliedSeq < seq {
					l.state = LinkDegraded
					r.stats.Degrades++
					r.cfg.Logf("replicator: %s degraded: no ack for seq %d within %v (divergence window open)", l.name, seq, timeout)
				}
			}
			return false
		}
		r.cond.Wait()
	}
}

// SeverLinks abruptly closes every live link connection (fault injection:
// a network partition). Senders observe transport errors and enter their
// retry loops; whether they ever reconnect is up to the dial functions.
func (r *Replicator) SeverLinks() {
	r.mu.Lock()
	conns := make([]fileserver.Conn, 0, len(r.links))
	for _, l := range r.links {
		if l.conn != nil {
			conns = append(conns, l.conn)
		}
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close stops every sender and waits for them. The observers should be
// Detached first (Close does it as a belt-and-braces measure).
func (r *Replicator) Close() {
	r.Detach()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	conns := make([]fileserver.Conn, 0, len(r.links))
	for _, l := range r.links {
		if l.conn != nil {
			conns = append(conns, l.conn)
		}
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}

// sender is the per-link goroutine: dial with backoff+jitter, handshake,
// resync if needed, stream batches, heartbeat when idle.
func (r *Replicator) sender(l *link) {
	defer r.wg.Done()
	rng := sim.NewRand(r.cfg.Seed ^ hashName(l.name))
	failures := 0
	for {
		r.mu.Lock()
		if r.closed || l.state == LinkFenced {
			if l.state != LinkFenced {
				l.state = LinkStopped
			}
			r.mu.Unlock()
			return
		}
		l.state = LinkConnecting
		r.mu.Unlock()

		conn, err := l.dial()
		progressed := false
		if err == nil {
			progressed, err = r.runLink(l, conn)
			conn.Close()
			r.mu.Lock()
			l.conn = nil
			fenced := l.state == LinkFenced
			closed := r.closed
			r.mu.Unlock()
			if fenced || closed {
				continue // top of loop exits
			}
		}
		if progressed {
			// The link streamed before failing; this is a fresh outage,
			// not another attempt in an ongoing one.
			failures = 0
		}
		failures++
		r.mu.Lock()
		l.retries++
		r.stats.Retries++
		if failures >= r.cfg.DegradeAfter && l.state != LinkDegraded {
			l.state = LinkDegraded
			r.stats.Degrades++
			r.cfg.Logf("replicator: %s degraded after %d consecutive failures (%v)", l.name, failures, err)
		}
		closed := r.closed
		r.mu.Unlock()
		r.cond.Broadcast()
		if closed {
			continue
		}
		// Exponential backoff with ±50% jitter, deterministic per link.
		delay := r.cfg.RetryMin << uint(min(failures-1, 16))
		if delay > r.cfg.RetryMax || delay <= 0 {
			delay = r.cfg.RetryMax
		}
		jitter := time.Duration(float64(delay) * (0.5 + rng.Float64()))
		time.Sleep(jitter)
	}
}

// runLink drives one connected incarnation of a link until a transport or
// protocol failure. progressed reports whether the handshake completed
// (the failure counter resets on progress); fencing is signalled via
// l.state.
func (r *Replicator) runLink(l *link, conn fileserver.Conn) (progressed bool, _ error) {
	r.mu.Lock()
	l.conn = conn
	r.mu.Unlock()

	// Handshake. startSeq is where our stream would resume; the replica
	// tells us whether that meets its applied prefix.
	r.mu.Lock()
	startSeq := l.cursor
	r.mu.Unlock()
	var e fileserver.Enc
	e.Str("primary")
	e.I64(r.dev.Size())
	e.U64(startSeq)
	if err := r.sendFrame(conn, r.cfg.Epoch, repHello, e.B); err != nil {
		return false, err
	}
	id, code, payload, err := r.readAck(conn)
	if err != nil {
		return false, err
	}
	switch code {
	case repReject:
		r.mu.Lock()
		l.state = LinkFenced
		r.mu.Unlock()
		r.cond.Broadcast()
		d := fileserver.Dec{B: payload}
		reason := d.Str()
		r.cfg.Logf("replicator: %s fenced us (epoch %d): %s — writes since the last common seq are divergent", l.name, id, reason)
		return false, fmt.Errorf("cluster: fenced: %s", reason)
	case repHelloAck:
		d := fileserver.Dec{B: payload}
		applied := d.U64()
		flags := d.U8()
		if !d.OK() {
			return false, fmt.Errorf("cluster: malformed hello ack")
		}
		r.mu.Lock()
		l.appliedSeq = applied
		if flags&flagGap != 0 || l.cursor != applied+1 || applied+1 <= r.start {
			l.needResync = true
		}
		r.mu.Unlock()
	default:
		return false, fmt.Errorf("cluster: unexpected handshake code %d", code)
	}

	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return true, nil
		}
		if l.needResync {
			r.mu.Unlock()
			if err := r.resync(l, conn); err != nil {
				return true, err
			}
			continue
		}
		// Collect one batch.
		var batch []byte
		var first uint64
		nrec := 0
		for l.cursor < r.next && nrec < batchRecords && len(batch) < batchBytes {
			if l.cursor <= r.start {
				// Fell out of the ring while batching: resync.
				l.needResync = true
				break
			}
			rec := r.recordAt(l.cursor)
			if first == 0 {
				first = rec.Seq
			}
			batch = AppendRecord(batch, rec)
			l.cursor++
			nrec++
		}
		if l.needResync {
			r.mu.Unlock()
			continue
		}
		streaming := l.state != LinkDegraded
		l.state = LinkStreaming
		if !streaming {
			r.cfg.Logf("replicator: %s recovered, streaming from seq %d", l.name, first)
		}
		r.mu.Unlock()

		if nrec == 0 {
			// Idle: wait for work or heartbeat the link.
			select {
			case <-l.wake:
				continue
			case <-time.After(r.cfg.HeartbeatEvery):
			}
			r.mu.Lock()
			r.stats.Heartbeats++
			r.mu.Unlock()
			if err := r.sendFrame(conn, 0, repHeartbeat, nil); err != nil {
				return true, err
			}
			if err := r.consumeAck(l, conn); err != nil {
				return true, err
			}
			continue
		}

		if err := r.sendFrame(conn, first, repRecords, batch); err != nil {
			r.rewind(l, first)
			return true, err
		}
		r.mu.Lock()
		r.stats.RecordsStreamed += int64(nrec)
		r.stats.BytesStreamed += int64(len(batch))
		r.mu.Unlock()
		if err := r.consumeAck(l, conn); err != nil {
			r.rewind(l, first)
			return true, err
		}
	}
}

// rewind resets the cursor after a failed send so the records are retried
// on the next incarnation (the replica skips duplicates by seq).
func (r *Replicator) rewind(l *link, to uint64) {
	r.mu.Lock()
	if !l.needResync && to > 0 && to > r.start {
		l.cursor = to
	} else if to <= r.start {
		l.needResync = true
	}
	r.mu.Unlock()
}

// resync streams a full device snapshot: everything the ring no longer
// retains, compressed to the chunks that exist. The snapshot is taken
// under the replicator lock, so it is consistent with a seq boundary:
// records ≤ snapSeq are included in (or superseded by) the image, records
// > snapSeq stream after it and re-apply idempotently.
func (r *Replicator) resync(l *link, conn fileserver.Conn) error {
	r.mu.Lock()
	snapSeq := r.next - 1
	img := r.dev.Snapshot()
	l.needResync = false
	l.resyncs++
	r.stats.Resyncs++
	r.mu.Unlock()
	r.cfg.Logf("replicator: resyncing %s at seq %d", l.name, snapSeq)

	var e fileserver.Enc
	e.I64(img.Size())
	if err := r.sendFrame(conn, snapSeq, repResyncBegin, e.B); err != nil {
		return err
	}
	if err := r.consumeAck(l, conn); err != nil {
		return err
	}
	var batch []byte
	var batchErr error
	nrec := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := r.sendFrame(conn, 0, repRecords, batch); err != nil {
			return err
		}
		r.mu.Lock()
		r.stats.RecordsStreamed += int64(nrec)
		r.stats.BytesStreamed += int64(len(batch))
		r.mu.Unlock()
		batch, nrec = batch[:0], 0
		return r.consumeAck(l, conn)
	}
	img.ForEachChunk(func(off int64, data []byte) {
		if batchErr != nil {
			return
		}
		rec := Record{Type: RecStore, Off: off, N: int64(len(data)), Data: data}
		batch = AppendRecord(batch, &rec)
		nrec++
		if nrec >= batchRecords || len(batch) >= batchBytes {
			batchErr = flush()
		}
	})
	if batchErr != nil {
		return batchErr
	}
	if err := flush(); err != nil {
		return err
	}
	if err := r.sendFrame(conn, snapSeq, repResyncEnd, nil); err != nil {
		return err
	}
	if err := r.consumeAck(l, conn); err != nil {
		return err
	}
	r.mu.Lock()
	if l.cursor < snapSeq+1 {
		l.cursor = snapSeq + 1
	}
	r.mu.Unlock()
	return nil
}

// sendFrame writes one frame with the ack timeout armed: the pipe
// transport is a rendezvous, so a replica that stopped reading would wedge
// the write itself — the AfterFunc severs the conn and fails the write.
func (r *Replicator) sendFrame(conn fileserver.Conn, id uint64, code uint8, payload []byte) error {
	timer := time.AfterFunc(r.cfg.AckTimeout, func() { conn.Close() })
	defer timer.Stop()
	return fileserver.WriteFrame(conn, id, code, payload)
}

// readAck reads one replica frame with the ack timeout armed.
func (r *Replicator) readAck(conn fileserver.Conn) (uint64, uint8, []byte, error) {
	timer := time.AfterFunc(r.cfg.AckTimeout, func() { conn.Close() })
	defer timer.Stop()
	return fileserver.ReadFrame(conn)
}

// consumeAck reads the replica's repAck and folds it into link state. A
// gap/bad-record flag schedules a resync.
func (r *Replicator) consumeAck(l *link, conn fileserver.Conn) error {
	_, code, payload, err := r.readAck(conn)
	if err != nil {
		return err
	}
	if code != repAck {
		return fmt.Errorf("cluster: expected ack, got frame %d", code)
	}
	d := fileserver.Dec{B: payload}
	applied := d.U64()
	d.U64() // appliedTx (informational)
	flags := d.U8()
	if !d.OK() {
		return fmt.Errorf("cluster: malformed ack")
	}
	r.mu.Lock()
	l.appliedSeq = applied
	if flags&(flagGap|flagBadRecord) != 0 {
		l.needResync = true
		if flags&flagBadRecord != 0 {
			r.cfg.Logf("replicator: %s reported corrupt records; resync scheduled", l.name)
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	return nil
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
