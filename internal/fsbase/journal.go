package fsbase

import (
	"sync"

	"repro/internal/pmem"
	"repro/internal/sim"
)

// MetaKind classifies a metadata operation for the MetaOp hook.
type MetaKind int

const (
	// MetaNamespace covers creates, unlinks, renames, mkdir/rmdir.
	MetaNamespace MetaKind = iota
	// MetaData covers size and extent-map updates from the data path.
	MetaData
)

// JBD2 models ext4/xfs-style block journaling: metadata records accumulate
// in a running transaction; commit — forced by fsync — is a stop-the-world
// flush through one global resource. This is the scalability bottleneck
// Figure 10 shows for ext4-DAX, xfs-DAX, and (by inheritance) SplitFS.
type JBD2 struct {
	model *pmem.CostModel
	res   sim.Resource
	mu    sync.Mutex
	// pending counts journal bytes logged since the last commit.
	pending int64
}

// NewJBD2 returns a journal model using the device's cost parameters.
func NewJBD2(model *pmem.CostModel) *JBD2 {
	return &JBD2{model: model}
}

// jbd2CommitFixedNS is the fixed cost of a JBD2 commit (descriptor block,
// commit block, barriers).
const jbd2CommitFixedNS = 14000

// Log records `entries` 64-byte metadata records in the running
// transaction. Writing to the in-memory journal buffer is cheap; the
// expense comes at commit.
// jbd2HandleNS is the per-operation cost of starting/stopping a JBD2
// handle and dirtying the touched metadata buffers.
const jbd2HandleNS = 500

func (j *JBD2) Log(ctx *sim.Ctx, entries int) {
	n := int64(entries) * 64
	j.mu.Lock()
	j.pending += n
	j.mu.Unlock()
	ctx.Counters.JournalBytes += n
	ctx.Advance(jbd2HandleNS + int64(entries)*j.model.WriteLat64/2)
}

// Commit flushes the running transaction: the caller (an fsync) occupies
// the global journal resource while the pending records are made durable.
// All concurrent fsyncs serialise here.
func (j *JBD2) Commit(ctx *sim.Ctx) {
	j.mu.Lock()
	pending := j.pending
	j.pending = 0
	j.mu.Unlock()
	// Journal records are written twice (journal + checkpoint later);
	// charge the journal write.
	hold := jbd2CommitFixedNS +
		int64(float64(pending)*j.model.CopyWriteNSPerByte*2)
	j.res.Use(ctx, hold)
	ctx.Counters.JournalCommits++
	ctx.Counters.PMWriteBytes += pending
}

// SingleJournal models PMFS's one fine-grained undo journal: every
// metadata operation synchronously writes its entries through a single
// shared resource. Holds are short (fine-grained journaling scales
// decently, §5.6) but all CPUs share the one journal.
type SingleJournal struct {
	model *pmem.CostModel
	res   sim.Resource
}

// NewSingleJournal returns PMFS's journal model.
func NewSingleJournal(model *pmem.CostModel) *SingleJournal {
	return &SingleJournal{model: model}
}

// Op journals one synchronous metadata operation of `entries` records.
func (s *SingleJournal) Op(ctx *sim.Ctx, entries int) {
	n := int64(entries) * 64
	hold := int64(entries)*(s.model.WriteLat64+s.model.FlushLat) + 2*s.model.FenceLat
	s.res.Use(ctx, hold)
	ctx.Counters.JournalBytes += n
	ctx.Counters.PMWriteBytes += n
	ctx.Counters.JournalCommits++
}

// PerInodeLog models NOVA's per-inode metadata logs: appends are
// contention-free across inodes and synchronous. The log consumes real
// free-space blocks (allocated by the caller), which is exactly the
// fragmentation driver the paper identifies.
type PerInodeLog struct {
	model *pmem.CostModel
}

// NewPerInodeLog returns NOVA's log cost model.
func NewPerInodeLog(model *pmem.CostModel) *PerInodeLog {
	return &PerInodeLog{model: model}
}

// Append charges `entries` 64B log appends plus flush+fence.
func (l *PerInodeLog) Append(ctx *sim.Ctx, entries int) {
	n := int64(entries) * 64
	ctx.Advance(int64(entries)*(l.model.WriteLat64+l.model.FlushLat) + l.model.FenceLat)
	ctx.Counters.JournalBytes += n
	ctx.Counters.PMWriteBytes += n
	ctx.Counters.JournalCommits++
}
