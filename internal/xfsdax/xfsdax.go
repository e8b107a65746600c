// Package xfsdax models xfs with DAX. Per the paper's footnote 1, xfs-DAX
// "completely disregards alignment even for large extents" and so cannot
// obtain hugepages even on a clean file system; it shares the
// stop-the-world-log fsync behaviour and relaxed guarantees of ext4-DAX.
package xfsdax

import (
	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// dataStartBlk mirrors xfs AG headers: the data area begins off-boundary.
const dataStartBlk = 41

// New mounts a fresh xfs-DAX instance over dev.
func New(dev *pmem.Device) *fsbase.FS {
	total := dev.Size()/fsbase.BlockSize - dataStartBlk
	h := &hooks{
		model: dev.Model(),
		pool:  fsbase.NewLockedPool(dataStartBlk, total),
		log:   fsbase.NewJBD2(dev.Model()),
	}
	return fsbase.New(dev, h)
}

type hooks struct {
	model *pmem.CostModel
	pool  *fsbase.LockedPool
	log   *fsbase.JBD2
}

func (h *hooks) Name() string                { return "xfs-DAX" }
func (h *hooks) Mode() vfs.ConsistencyMode   { return vfs.Relaxed }
func (h *hooks) TotalBlocks() int64          { return h.pool.Total() }
func (h *hooks) FreeBlocks() int64           { return h.pool.Free() }
func (h *hooks) FreeExtents() []alloc.Extent { return h.pool.Extents() }

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	// Contiguity only — never any alignment attempt (footnote 1).
	ex, ok := h.pool.Take(ctx, blocks, fsbase.Strategy{Goal: hint.Goal, NextFit: true})
	if !ok {
		return nil, vfs.ErrNoSpace
	}
	return ex, nil
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) { h.pool.Release(ctx, ex) }

func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	h.log.Log(ctx, entries)
}

func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) { ctx.Advance(190) }

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	return fsbase.InPlace
}

func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {}

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	h.log.Commit(ctx)
}

func (h *hooks) ZeroOnFault() bool                     { return true }
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {}
func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {}
