package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fileserver"
	"repro/internal/pmem"
)

// ReplicaStats is a point-in-time snapshot of one replica's applier.
type ReplicaStats struct {
	Epoch          uint64
	AppliedSeq     uint64
	RecordsApplied int64
	BytesApplied   int64
	BadRecords     int64 // decode failures (torn/corrupt stream)
	Gaps           int64 // sequence gaps detected
	Rejects        int64 // stale-primary links fenced
	Resyncs        int64 // full-image resyncs completed
	Heartbeats     int64
}

// Replica applies a primary's replication stream to its own device. It is
// passive: the primary dials it (Serve) and drives the conversation. One
// Replica accepts any number of sequential link incarnations — reconnects
// after a transport fault, or a new primary after a promotion — and fences
// stale epochs. Stop ends it for good, before its image is saved or
// promoted.
type Replica struct {
	name string
	dev  *pmem.Device

	// applyDelay, when non-zero, stalls each record batch (wall clock) —
	// the campaign's replica-lag injection.
	applyDelay atomic.Int64

	mu         sync.Mutex
	epoch      uint64
	appliedSeq uint64
	resyncing  bool
	stopped    bool
	conns      map[fileserver.Conn]struct{} // live links, closed by Stop
	handlers   sync.WaitGroup
	stats      ReplicaStats
	logf       func(string, ...any)
}

// NewReplica returns a replica applying to dev. logf (nil for silent)
// receives divergence and fencing events.
func NewReplica(name string, dev *pmem.Device, logf func(string, ...any)) *Replica {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Replica{name: name, dev: dev, conns: make(map[fileserver.Conn]struct{}), logf: logf}
}

// Name returns the replica's name.
func (r *Replica) Name() string { return r.name }

// Device returns the replica's backing device.
func (r *Replica) Device() *pmem.Device { return r.dev }

// SetApplyDelay injects a per-batch wall-clock stall (0 disables) — the
// fault campaign's replica-lag scenario.
func (r *Replica) SetApplyDelay(d time.Duration) { r.applyDelay.Store(int64(d)) }

// Stats snapshots the applier counters.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Epoch = r.epoch
	st.AppliedSeq = r.appliedSeq
	return st
}

// AppliedSeq reports the highest contiguous sequence number applied.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

// WithQuiesced runs f while record application is paused (the applier lock
// is held), giving f a race-free window to inspect the replica's device —
// the divergence checker's entry point against a live replica.
func (r *Replica) WithQuiesced(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// Promotable reports whether this replica's image is a complete copy of
// some primary state: the baseline resync finished and no resync is in
// flight. A mid-resync image is a wiped device with a partial snapshot —
// promoting it would mount garbage.
func (r *Replica) Promotable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.Resyncs > 0 && !r.resyncing
}

// Serve accepts replication links until the listener closes, each on its
// own goroutine; epoch fencing keeps only the newest primary effective.
// Closing the listener does not end the links already accepted: Stop does.
func (r *Replica) Serve(l fileserver.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.handlers.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.handlers.Done()
			r.handle(conn)
			conn.Close()
			r.mu.Lock()
			delete(r.conns, conn)
			r.mu.Unlock()
		}()
	}
}

// Stop ends the replica for good, the step before its image is saved or
// promoted: later hellos are rejected, no record applies any more, every
// live link is closed and Stop waits for their handlers. Once it returns
// the device no longer changes, and no primary holds an ack for a record
// the device lacks.
func (r *Replica) Stop() {
	r.mu.Lock()
	r.stopped = true
	conns := make([]fileserver.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	r.handlers.Wait()
}

// handle runs one replication link to completion. It returns when the
// transport dies, the primary is fenced, or the replica stops; the error is
// diagnostic only (the primary's retry loop owns recovery).
func (r *Replica) handle(conn fileserver.Conn) error {
	var linkEpoch uint64
	helloDone := false
	for {
		id, code, payload, err := fileserver.ReadFrame(conn)
		if err != nil {
			return err
		}
		if !helloDone && code != repHello {
			return fmt.Errorf("cluster: replica %s: first frame %d is not hello", r.name, code)
		}
		switch code {
		case repHello:
			ok, reply, rid, rcode := r.hello(id, payload)
			if werr := fileserver.WriteFrame(conn, rid, rcode, reply); werr != nil {
				return werr
			}
			if !ok {
				return fmt.Errorf("cluster: replica %s: rejected epoch %d", r.name, id)
			}
			linkEpoch = id
			helloDone = true

		case repRecords, repResyncBegin, repResyncEnd, repHeartbeat:
			if d := time.Duration(r.applyDelay.Load()); d > 0 && code == repRecords {
				time.Sleep(d)
			}
			ack, fenced := r.apply(linkEpoch, code, id, payload)
			if fenced {
				// A newer primary took over mid-link, or the replica
				// stopped: stop acking so the primary cannot mistake us
				// for durable storage.
				return fmt.Errorf("cluster: replica %s: link epoch %d fenced", r.name, linkEpoch)
			}
			if werr := fileserver.WriteFrame(conn, ack.id, repAck, ack.payload); werr != nil {
				return werr
			}

		default:
			return fmt.Errorf("cluster: replica %s: unknown frame code %d", r.name, code)
		}
	}
}

// hello validates a primary's opening frame under the replica lock.
func (r *Replica) hello(epoch uint64, payload []byte) (ok bool, reply []byte, rid uint64, rcode uint8) {
	d := fileserver.Dec{B: payload}
	name := d.Str()
	size := d.I64()
	startSeq := d.U64()
	r.mu.Lock()
	defer r.mu.Unlock()
	reject := func(reason string) (bool, []byte, uint64, uint8) {
		r.stats.Rejects++
		r.logf("replica %s: reject %s: %s", r.name, name, reason)
		var e fileserver.Enc
		e.Str(reason)
		return false, e.B, r.epoch, repReject
	}
	if !d.OK() {
		return reject("malformed hello")
	}
	if r.stopped {
		return reject("replica stopped")
	}
	if epoch < r.epoch {
		return reject(fmt.Sprintf("stale epoch %d < %d", epoch, r.epoch))
	}
	if size != r.dev.Size() {
		return reject(fmt.Sprintf("device size %d != %d", size, r.dev.Size()))
	}
	r.epoch = epoch
	var flags uint8
	if startSeq != r.appliedSeq+1 || r.resyncing {
		// The primary's stream and our applied prefix do not meet, or a
		// resync broke off and left the device wiped: a resync must
		// precede any records.
		flags |= flagGap
	}
	var e fileserver.Enc
	e.U64(r.appliedSeq)
	e.U8(flags)
	return true, e.B, epoch, repHelloAck
}

type ackFrame struct {
	id      uint64
	payload []byte
}

// apply processes one stream frame under the replica lock and builds the
// ack. fenced reports that a newer epoch displaced this link.
func (r *Replica) apply(linkEpoch uint64, code uint8, id uint64, payload []byte) (ackFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if linkEpoch < r.epoch || r.stopped {
		return ackFrame{}, true
	}
	var flags uint8
	switch code {
	case repHeartbeat:
		r.stats.Heartbeats++

	case repResyncBegin:
		d := fileserver.Dec{B: payload}
		size := d.I64()
		if !d.OK() || size != r.dev.Size() {
			flags |= flagGap | flagBadRecord
			break
		}
		// Clean slate: the snapshot stream only carries backed chunks, so
		// everything else must read zero, as on the primary.
		r.dev.ZeroRange(0, r.dev.Size())
		r.resyncing = true
		r.stats.Resyncs++

	case repResyncEnd:
		r.resyncing = false
		r.appliedSeq = id
		r.logf("replica %s: resync complete at seq %d", r.name, id)

	case repRecords:
		flags = r.applyBatch(payload)
	}

	var e fileserver.Enc
	e.U64(r.appliedSeq)
	e.U8(flags)
	return ackFrame{id: r.appliedSeq, payload: e.B}, false
}

// applyBatch decodes and applies a repRecords payload. Malformed bytes or
// gaps stop the batch and flag the ack; they never panic and never apply
// out of order.
func (r *Replica) applyBatch(payload []byte) uint8 {
	var flags uint8
	for len(payload) > 0 {
		rec, n, err := DecodeRecord(payload)
		if err != nil {
			r.stats.BadRecords++
			r.logf("replica %s: bad record: %v", r.name, err)
			return flags | flagGap | flagBadRecord
		}
		payload = payload[n:]
		if rec.Seq == 0 {
			// Resync record: apply unsequenced.
			if !r.applyRecord(&rec) {
				return flags | flagGap | flagBadRecord
			}
			continue
		}
		if rec.Seq <= r.appliedSeq {
			continue // duplicate after a retry; idempotent skip
		}
		if rec.Seq != r.appliedSeq+1 {
			r.stats.Gaps++
			r.logf("replica %s: gap: want seq %d got %d", r.name, r.appliedSeq+1, rec.Seq)
			return flags | flagGap
		}
		if !r.applyRecord(&rec) {
			return flags | flagGap | flagBadRecord
		}
		r.appliedSeq = rec.Seq
	}
	return flags
}

// applyRecord lands one record on the device, bounds-checked so a corrupt
// offset cannot panic the applier.
func (r *Replica) applyRecord(rec *Record) bool {
	size := r.dev.Size()
	if rec.Off < 0 || rec.N < 0 || rec.Off > size || size-rec.Off < rec.N {
		r.stats.BadRecords++
		r.logf("replica %s: record range [%d,+%d) outside device", r.name, rec.Off, rec.N)
		return false
	}
	switch rec.Type {
	case RecStore:
		r.dev.WriteAt(rec.Data, rec.Off)
		r.stats.BytesApplied += int64(len(rec.Data))
	case RecZero:
		r.dev.ZeroRange(rec.Off, rec.N)
	case RecDiscard:
		r.dev.DiscardRange(rec.Off, rec.N)
	}
	r.stats.RecordsApplied++
	return true
}
