// Package nova models NOVA, the log-structured PM file system that is the
// paper's primary strict-mode comparison point. The properties that matter
// to the reproduction, each taken from the paper's characterisation:
//
//   - per-CPU allocators, giving NOVA its excellent scalability (§5.6);
//   - a per-inode log, allocated from the data area — "NOVA has a per-file
//     log that causes fragmentation, using up an aligned extent" (§3.4);
//     logs grow block by block and are compacted by garbage collection;
//   - alignment only for requests that are exact multiples of 2MiB (§6:
//     "NOVA attempts to allocate hugepage-aligned physical extents, but
//     requires allocation requests to be exact multiples of 2MB");
//   - copy-on-write at 4KiB granularity for data atomicity — including
//     unaligned appends, which copy the old partial block ("NOVA forces
//     these appends to a new 4KB page ... causing high write
//     amplification", §5.5);
//   - allocation and zero-out at fallocate time, so page faults are cheap
//     but numerous (Table 2 discussion).
package nova

import (
	"sync"

	"repro/internal/alloc"
	"repro/internal/fsbase"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const dataStartBlk = 23

// logEntriesPerBlock is how many 64B log records fit one 4KiB log block.
const logEntriesPerBlock = fsbase.BlockSize / 64

// gcThresholdBlocks triggers log compaction once an inode's log exceeds
// this many blocks.
const gcThresholdBlocks = 8

// Options selects NOVA's consistency mode.
type Options struct {
	// Relaxed selects NOVA-relaxed (metadata consistency only), the
	// variant the paper compares in the relaxed group.
	Relaxed bool
	// CPUs sets the number of per-CPU allocation pools (default 8).
	CPUs int
}

// New mounts a fresh NOVA instance over dev.
func New(dev *pmem.Device, opts Options) *fsbase.FS {
	if opts.CPUs <= 0 {
		opts.CPUs = 8
	}
	total := dev.Size()/fsbase.BlockSize - dataStartBlk
	per := total / int64(opts.CPUs)
	h := &hooks{
		model:   dev.Model(),
		relaxed: opts.Relaxed,
		log:     fsbase.NewPerInodeLog(dev.Model()),
	}
	for c := 0; c < opts.CPUs; c++ {
		start := dataStartBlk + int64(c)*per
		h.pools = append(h.pools, fsbase.NewLockedPool(start, per))
	}
	return fsbase.New(dev, h)
}

type hooks struct {
	model   *pmem.CostModel
	pools   []*fsbase.LockedPool
	log     *fsbase.PerInodeLog
	relaxed bool

	mu sync.Mutex // guards per-node log bookkeeping done outside node locks
}

func (h *hooks) Name() string {
	if h.relaxed {
		return "NOVA-relaxed"
	}
	return "NOVA"
}

func (h *hooks) Mode() vfs.ConsistencyMode {
	if h.relaxed {
		return vfs.Relaxed
	}
	return vfs.Strict
}

func (h *hooks) TotalBlocks() int64 {
	var t int64
	for _, p := range h.pools {
		t += p.Total()
	}
	return t
}

func (h *hooks) FreeBlocks() int64 {
	var t int64
	for _, p := range h.pools {
		t += p.Free()
	}
	return t
}

func (h *hooks) FreeExtents() []alloc.Extent {
	var out []alloc.Extent
	for _, p := range h.pools {
		out = append(out, p.Extents()...)
	}
	return alloc.Merge(out)
}

func (h *hooks) pool(ctx *sim.Ctx) *fsbase.LockedPool {
	return h.pools[ctx.CPU%len(h.pools)]
}

func (h *hooks) Alloc(ctx *sim.Ctx, blocks int64, hint fsbase.AllocHint) ([]alloc.Extent, error) {
	s := fsbase.Strategy{Goal: hint.Goal, NextFit: true}
	// Alignment only for exact hugepage multiples (§6); NOVA scans its own
	// CPU's free list for an aligned run.
	if blocks%alloc.BlocksPerHuge == 0 {
		s.TryAligned = true
	}
	local := h.pool(ctx)
	if ex, ok := local.Take(ctx, blocks, s); ok {
		return ex, nil
	}
	// Local pool dry: steal from the fullest pool.
	var best *fsbase.LockedPool
	var bestFree int64
	for _, p := range h.pools {
		if f := p.Free(); f > bestFree {
			best, bestFree = p, f
		}
	}
	if best != nil {
		if ex, ok := best.Take(ctx, blocks, s); ok {
			ctx.Counters.AllocSteals++
			return ex, nil
		}
	}
	// No single pool can satisfy the request: gather pieces across pools,
	// keeping pieces hugepage-aligned multiples while the remainder allows
	// (NOVA still tries aligned extents for exact-2MiB sub-requests).
	var out []alloc.Extent
	remaining := blocks
	for _, p := range h.pools {
		for remaining > 0 {
			free := p.Free()
			if free == 0 {
				break
			}
			take := remaining
			if take > free {
				take = free
			}
			st := fsbase.Strategy{Goal: -1, NextFit: true}
			if remaining >= alloc.BlocksPerHuge && take >= alloc.BlocksPerHuge {
				take = take / alloc.BlocksPerHuge * alloc.BlocksPerHuge
				st.TryAligned = true
			}
			ex, ok := p.Take(ctx, take, st)
			if !ok {
				if st.TryAligned && take < remaining {
					break
				}
				// Retry without the alignment constraint.
				ex, ok = p.Take(ctx, take, fsbase.Strategy{Goal: -1, NextFit: true})
				if !ok {
					break
				}
			}
			out = append(out, ex...)
			remaining -= take
		}
		if remaining == 0 {
			return out, nil
		}
	}
	h.Free(ctx, out)
	return nil, vfs.ErrNoSpace
}

func (h *hooks) Free(ctx *sim.Ctx, ex []alloc.Extent) {
	// Extents return to the pool that owns their address range.
	for _, e := range ex {
		for _, p := range h.pools {
			if p.Owns(e.Start) {
				p.Release(ctx, []alloc.Extent{e})
				e.Len = 0
				break
			}
		}
		if e.Len > 0 {
			h.pools[0].Release(ctx, []alloc.Extent{e})
		}
	}
}

// MetaOp appends records to the inode's log, growing it block by block and
// compacting it when it exceeds the GC threshold — both operations churn
// the free-space pools, which is NOVA's fragmentation story.
func (h *hooks) MetaOp(ctx *sim.Ctx, n *fsbase.Node, entries int, kind fsbase.MetaKind) {
	h.log.Append(ctx, entries)
	if n == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n.LogEntries += int64(entries)
	capEntries := int64(len(n.LogBlocks)) * logEntriesPerBlock
	if n.LogEntries > capEntries {
		if ex, ok := h.pool(ctx).Take(ctx, 1, fsbase.Strategy{Goal: -1}); ok {
			n.LogBlocks = append(n.LogBlocks, ex...)
		}
	}
	if len(n.LogBlocks) > gcThresholdBlocks {
		// Log cleaning: copy live entries into two fresh blocks, free the
		// rest. Interferes with foreground threads via bandwidth and
		// allocator traffic (§2.6).
		ctx.Counters.GCWork += int64(len(n.LogBlocks))
		freed := n.LogBlocks
		n.LogBlocks = nil
		n.LogEntries = n.LogEntries / 4
		if ex, ok := h.pool(ctx).Take(ctx, 2, fsbase.Strategy{Goal: -1}); ok {
			n.LogBlocks = ex
		}
		ctx.Advance(int64(len(freed)) * fsbase.BlockSize / 64 * h.model.WriteLat64 / 8)
		h.freeLocked(ctx, freed)
	}
}

func (h *hooks) freeLocked(ctx *sim.Ctx, ex []alloc.Extent) {
	for _, e := range ex {
		for _, p := range h.pools {
			if p.Owns(e.Start) {
				p.Release(ctx, []alloc.Extent{e})
				e.Len = 0
				break
			}
		}
	}
}

// DRAM radix indexes make lookups near-constant.
func (h *hooks) DirLookup(ctx *sim.Ctx, entries int) { ctx.Advance(160) }

func (h *hooks) Overwrite(ctx *sim.Ctx, n *fsbase.Node, off, length int64) fsbase.OverwriteAction {
	if h.relaxed {
		return fsbase.InPlace
	}
	// §5.5 (PostgreSQL analysis): on every overwrite "NOVA has to delete
	// per-inode log entries, add new entries ... and update DRAM indexes".
	// Invalidate the superseded log entry (64B write + flush + fence) and
	// pay the radix-index update.
	ctx.Advance(h.model.WriteLat64 + h.model.FlushLat + h.model.FenceLat + 150)
	ctx.Counters.JournalBytes += 64
	return fsbase.CoW
}

func (h *hooks) DataWrite(ctx *sim.Ctx, n *fsbase.Node, length int64) {}

func (h *hooks) Fsync(ctx *sim.Ctx, n *fsbase.Node) {
	// Log-structured metadata is already durable.
	ctx.Advance(h.model.FenceLat)
}

func (h *hooks) ZeroOnFault() bool { return false }

// OnCreate allocates the per-inode log's first block — the 4KiB
// allocations that pepper the data area and defeat hugepage alignment.
func (h *hooks) OnCreate(ctx *sim.Ctx, n *fsbase.Node) {
	if ex, ok := h.pool(ctx).Take(ctx, 1, fsbase.Strategy{Goal: -1}); ok {
		h.mu.Lock()
		n.LogBlocks = ex
		h.mu.Unlock()
	}
}

func (h *hooks) OnDelete(ctx *sim.Ctx, n *fsbase.Node) {
	h.mu.Lock()
	freed := n.LogBlocks
	n.LogBlocks = nil
	n.LogEntries = 0
	h.mu.Unlock()
	h.freeLocked(ctx, freed)
}
