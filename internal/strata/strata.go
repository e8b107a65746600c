// Package strata models Strata's kernel-bypass design as the paper
// characterises it: writes go first to a per-process log and are later
// digested (copied) into the shared PM region — "Strata has to perform
// expensive data copies from its per-process logs to the shared PM region
// for making data visible to other processes" (§5.3). The log-structured
// layout fragments free space like NOVA's (§6), and guarantees are strict
// (data + metadata).
package strata

import (
	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const dataStartBlk = 29

// New mounts a fresh Strata instance over dev.
func New(dev *pmem.Device) *fsbase.FS {
	total := dev.Size()/fsbase.BlockSize - dataStartBlk
	h := &hooks{
		model: dev.Model(),
		pool:  fsbase.NewLockedPool(dataStartBlk, total),
		log:   fsbase.NewPerInodeLog(dev.Model()),
		// digestBW models the digestion path's share of write bandwidth.
		digestBW: sim.NewBandwidth(dev.Model().WriteBandwidth / 2),
	}
	return fsbase.New(dev, h)
}

type hooks struct {
	model    *pmem.CostModel
	pool     *fsbase.LockedPool
	log      *fsbase.PerInodeLog
	digestBW *sim.Bandwidth
}

func (h *hooks) Name() string                { return "Strata" }
func (h *hooks) Mode() vfs.ConsistencyMode   { return vfs.Strict }
func (h *hooks) TotalBlocks() int64          { return h.pool.Total() }
func (h *hooks) FreeBlocks() int64           { return h.pool.Free() }
func (h *hooks) FreeExtents() []alloc.Extent { return h.pool.Extents() }

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	// Digestion writes sequentially into the shared area: contiguity only.
	ex, ok := h.pool.Take(ctx, blocks, fsbase.Strategy{Goal: hint.Goal, NextFit: true})
	if !ok {
		return nil, vfs.ErrNoSpace
	}
	return ex, nil
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) { h.pool.Release(ctx, ex) }

func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	// Operation log append in the private log: uncontended, synchronous.
	h.log.Append(ctx, entries)
}

func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) { ctx.Advance(170) }

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	return fsbase.CoW // log-structured updates never go in place
}

// DataWrite charges the digestion copy: data written once to the private
// log (charged by the base write path) is copied again into the shared
// region.
func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {
	ns := int64(float64(length) * h.model.CopyWriteNSPerByte)
	ctx.Advance(ns)
	ctx.Counters.CopyNS += ns
	ctx.Counters.PMWriteBytes += length
	ctx.Counters.JournalBytes += length
	h.digestBW.Transfer(ctx, length)
}

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	// The log is already durable.
	ctx.Advance(h.model.FenceLat)
}

func (h *hooks) ZeroOnFault() bool                     { return false }
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {}
func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {}
