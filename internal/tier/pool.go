package tier

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
)

// Pool is the slow tier's free-space allocator, a policy over the shared
// alloc.Pool index: first-fit from the region start, else gather from the
// lowest extents (no TLB behind it, so contiguity is the only goal). Its
// own are the lock, the region [start, end) of the file system's global
// block space, and strictness: out-of-region and double free panic.
// Volatile — rebuilt from the inode extent scan at every mount (winefs
// rebuildFromScan), so no on-device free state.
type Pool struct {
	mu         sync.Mutex
	start, end int64
	free       *alloc.Pool
}

// NewPool creates a pool covering [start, start+blocks), all free.
func NewPool(start, blocks int64) *Pool {
	p := &Pool{start: start, end: start + blocks, free: alloc.NewPool()}
	p.free.Add(start, blocks)
	return p
}

// locked reads the index under the pool lock.
func locked[T any](p *Pool, read func(*alloc.Pool) T) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return read(p.free)
}

// FreeBlocks returns the number of free blocks.
func (p *Pool) FreeBlocks() int64 { return locked(p, (*alloc.Pool).FreeBlocks) }

// FreeExtents returns the free extents in address order (Audit, stats).
func (p *Pool) FreeExtents() []alloc.Extent { return locked(p, (*alloc.Pool).Extents) }

// Check is the index's self-check (alloc.Pool.Check), for Audit.
func (p *Pool) Check() error { return locked(p, (*alloc.Pool).Check) }

// Alloc carves n blocks: one first-fit extent when any is large enough,
// else whole extents front to back. Returns nil, with nothing allocated,
// when the pool cannot cover the request.
func (p *Pool) Alloc(n int64) []alloc.Extent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 || n > p.free.FreeBlocks() {
		return nil
	}
	if e, ok := p.free.TakeNextFit(p.start, n); ok {
		return []alloc.Extent{e}
	}
	var out []alloc.Extent
	for n > 0 {
		e, _ := p.free.First()
		e.Len = min(e.Len, n)
		p.free.TakeAt(e.Start, e.Len)
		out = append(out, e)
		n -= e.Len
	}
	return out
}

// Free returns [start, start+length) to the pool, merging with its
// neighbours. Blocks outside the region or already free (alloc.Pool.Add)
// are a caller bug and panic.
func (p *Pool) Free(start, length int64) {
	if length > 0 && (start < p.start || start+length > p.end) {
		panic(fmt.Sprintf("tier: free [%d,%d) outside slow region [%d,%d)", start, start+length, p.start, p.end))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free.Add(start, length)
}

// MarkUsed removes [start, start+length) from the free space (the mount's
// replay of the inode extent scan). The records come off the media: blocks
// a second record claims are already gone and stay gone, as on the PM side
// (alloc.Pool.Carve) — a cross-link is fsck's finding, and Audit's, not a
// reason for a mount to panic. The mount's validator keeps records inside
// the region.
func (p *Pool) MarkUsed(start, length int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free.Carve(start, length)
}
