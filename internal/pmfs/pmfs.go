// Package pmfs models PMFS, the code base WineFS was built from: a single
// fine-grained undo journal (synchronous, short holds — scales decently,
// §5.6 — but shared by all CPUs), linear directory scans ("poor metadata
// structures, directory traversals, and inode free-lists limit PMFS's
// performance on metadata-heavy workloads like varmail"), an
// alignment-blind allocator (it cannot get hugepages even when clean,
// footnote 1), and relaxed guarantees.
package pmfs

import (
	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const dataStartBlk = 19

// New mounts a fresh PMFS instance over dev.
func New(dev *pmem.Device) *fsbase.FS {
	total := dev.Size()/fsbase.BlockSize - dataStartBlk
	h := &hooks{
		model:   dev.Model(),
		pool:    fsbase.NewLockedPool(dataStartBlk, total),
		journal: fsbase.NewSingleJournal(dev.Model()),
	}
	return fsbase.New(dev, h)
}

type hooks struct {
	model   *pmem.CostModel
	pool    *fsbase.LockedPool
	journal *fsbase.SingleJournal
}

func (h *hooks) Name() string                { return "PMFS" }
func (h *hooks) Mode() vfs.ConsistencyMode   { return vfs.Relaxed }
func (h *hooks) TotalBlocks() int64          { return h.pool.Total() }
func (h *hooks) FreeBlocks() int64           { return h.pool.Free() }
func (h *hooks) FreeExtents() []alloc.Extent { return h.pool.Extents() }

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	ex, ok := h.pool.Take(ctx, blocks, fsbase.Strategy{Goal: hint.Goal, NextFit: true})
	if !ok {
		return nil, vfs.ErrNoSpace
	}
	return ex, nil
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) { h.pool.Release(ctx, ex) }

func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	h.journal.Op(ctx, entries)
}

// pmfsDirentScanNS is the per-entry cost of PMFS's sequential directory
// scan (no DRAM index).
const pmfsDirentScanNS = 60

func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) {
	cost := int64(entries) * pmfsDirentScanNS / 2 // expected half-scan
	if cost < 100 {
		cost = 100
	}
	ctx.Advance(cost)
}

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	return fsbase.InPlace
}

func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {}

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	// Metadata is already durable, and data went out non-temporally.
	ctx.Advance(h.model.FenceLat)
}

func (h *hooks) ZeroOnFault() bool                     { return false }
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {}
func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {}
