// Package splitfs models SplitFS (in its default POSIX mode): a user-space
// layer that accelerates data operations — appends go to staged memory
// with no journal work, relinked into the file at fsync — on top of
// ext4-DAX, from which it inherits the JBD2 journal for all namespace
// operations ("SplitFS inherits low scalability for creates and deletes as
// it relies on ext4-DAX's JBD2 journal", §5.5) and ext4's allocation and
// fault behaviour.
package splitfs

import (
	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const dataStartBlk = 37

// New mounts a fresh SplitFS (over a modelled ext4-DAX) on dev.
func New(dev *pmem.Device) *fsbase.FS {
	total := dev.Size()/fsbase.BlockSize - dataStartBlk
	h := &hooks{
		model: dev.Model(),
		pool:  fsbase.NewLockedPool(dataStartBlk, total),
		jbd2:  fsbase.NewJBD2(dev.Model()),
	}
	return fsbase.New(dev, h)
}

type hooks struct {
	model *pmem.CostModel
	pool  *fsbase.LockedPool
	jbd2  *fsbase.JBD2
}

func (h *hooks) Name() string                { return "SplitFS" }
func (h *hooks) Mode() vfs.ConsistencyMode   { return vfs.Relaxed }
func (h *hooks) TotalBlocks() int64          { return h.pool.Total() }
func (h *hooks) FreeBlocks() int64           { return h.pool.Free() }
func (h *hooks) FreeExtents() []alloc.Extent { return h.pool.Extents() }

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	// ext4-DAX allocation underneath.
	ex, ok := h.pool.Take(ctx, blocks, fsbase.Strategy{Goal: hint.Goal, TryAligned: hint.Large, AlignWindow: 16 * alloc.BlocksPerHuge, NextFit: true})
	if !ok {
		return nil, vfs.ErrNoSpace
	}
	return ex, nil
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) { h.pool.Release(ctx, ex) }

func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	if kind == fsbase.MetaData {
		// Data-path metadata is staged in user space: a cheap logged write,
		// paid for properly at fsync's relink.
		ctx.Advance(int64(entries) * h.model.WriteLat64 / 2)
		ctx.Counters.JournalBytes += int64(entries) * 64
		return
	}
	// Namespace operations fall through to ext4's JBD2.
	h.jbd2.Log(ctx, entries)
}

func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) { ctx.Advance(180) }

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	return fsbase.InPlace
}

func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {}

// relinkFixedNS is the fixed cost of SplitFS's relink call at fsync.
const relinkFixedNS = 1500

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	// Relink staged data via the ext4 journal.
	ctx.Advance(relinkFixedNS)
	h.jbd2.Commit(ctx)
}

func (h *hooks) ZeroOnFault() bool                     { return true }
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {}
func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {}
