// Package ext4dax models ext4 with DAX, as the paper characterises it:
//
//   - a contiguity-first ("goal") multi-block allocator that prefers
//     extending a file's last extent over everything else, with mballoc's
//     best-effort alignment for large requests — which is why a clean
//     ext4-DAX gets hugepages but an aged one "uses only 3k of the 12k
//     aligned extents available" (§2.5);
//   - JBD2 block journaling whose commit is a stop-the-world flush forced
//     by fsync — the costly-fsync and poor-scalability behaviour of
//     Figures 6, 9 and 10;
//   - metadata-only (relaxed) crash consistency;
//   - zero-on-page-fault for fallocated space, making faults expensive
//     (Table 2 discussion: "ext4-DAX does zero-out of pages on a page
//     fault and not fallocate()").
package ext4dax

import (
	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// dataStartBlk leaves room for "static" metadata (superblock, group
// descriptors, inode tables) and intentionally starts the data area off a
// hugepage boundary, as on a real formatted partition.
const dataStartBlk = 37

// New mounts a fresh ext4-DAX instance over dev.
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

func (h *hooks) Name() string                { return "ext4-DAX" }
func (h *hooks) Mode() vfs.ConsistencyMode   { return vfs.Relaxed }
func (h *hooks) TotalBlocks() int64          { return h.pool.Total() }
func (h *hooks) FreeBlocks() int64           { return h.pool.Free() }
func (h *hooks) FreeExtents() []alloc.Extent { return h.pool.Extents() }

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	ex, ok := h.pool.Take(ctx, blocks, fsbase.Strategy{
		Goal: hint.Goal,
		// mballoc normalises large requests to power-of-two boundaries,
		// which yields hugepage alignment on a clean file system — but the
		// search covers only the block groups near the stream goal, and the
		// goal (locality) attempt comes first: both squander aligned
		// extents as the file system ages (§2.5).
		TryAligned:  hint.Large,
		AlignWindow: 16 * alloc.BlocksPerHuge,
		NextFit:     true,
	})
	if !ok {
		return nil, vfs.ErrNoSpace
	}
	return ex, nil
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) { h.pool.Release(ctx, ex) }

func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	h.jbd2.Log(ctx, entries)
}

// ext4's hashed directories resolve in near-constant time.
func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) { ctx.Advance(180) }

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	return fsbase.InPlace // metadata-only consistency
}

func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {}

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	h.jbd2.Commit(ctx)
}

func (h *hooks) ZeroOnFault() bool                     { return true }
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {}
func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {}
