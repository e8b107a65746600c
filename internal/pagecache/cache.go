// Package pagecache is the client-side caching subsystem of the serving
// stack: it wraps any vfs.FS — in practice a fileserver.Client — and keeps
// 4KiB-aligned data pages plus attribute entries in one bounded LRU, so a
// hot working set is served at DRAM cost instead of paying the full
// RPC + device cost on every access (the SplitFS observation: route the
// data path around the server, keep the server authoritative for
// metadata).
//
// Coherence comes from server leases, not timeouts. A cached file holds a
// read or write lease granted through the wrapped file's Lease method; the
// server revokes the lease (a statusRevoke push, delivered through
// RevokeSource) before any conflicting access from another session is
// allowed to proceed, and the revoke handler here flushes every dirty page
// and drops every cached byte for the ino before acking. While no lease is
// held the cache is a pure pass-through, so it can never serve a stale
// byte: cached state is only ever consulted under a lease (DESIGN.md §9).
//
// Writes are write-back within a bounded dirty set: WriteAt on a
// write-leased file dirties cached pages at DRAM cost and the data reaches
// the server on Fsync/Close/lease-revoke, or earlier when the dirty bound
// overflows. A failed write-back is never silent — the error sticks to the
// file and surfaces on the writer's next operation (EIO semantics).
//
// Virtual-time accounting: hits advance the caller's clock by a DRAM-class
// cost (HitLatNS + HitNSPerByte·n, no syscall — the point of a user-level
// cache); misses and flushes go through the wrapped FS and pay whatever
// the server charges.
package pagecache

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// PageSize is the cache granule. 4KiB matches the base page the rest of
// the simulation accounts in.
const PageSize = 4096

// flusherThreadBase keeps revoke-flush sim threads disjoint from workload
// drivers (100–5000), server sessions (9000+) and cleanup threads (12000+).
const flusherThreadBase = 15000

var flusherSeq atomic.Int64

// Leasable is the lease surface the wrapped FS's files must expose for
// their data to be cached; fileserver's remote files implement it. Files
// that don't are served pass-through, uncached.
type Leasable interface {
	// Lease acquires a shared (write=false) or exclusive (write=true)
	// cache lease on the file, reporting whether it was granted.
	Lease(ctx *sim.Ctx, write bool) (bool, error)
	// Unlease voluntarily releases the lease.
	Unlease(ctx *sim.Ctx) error
}

// RevokeSource is how the transport delivers server-initiated lease
// revocations; fileserver.Client implements it.
type RevokeSource interface {
	SetRevokeHandler(func(ino uint64))
}

// Config bounds and prices the cache.
type Config struct {
	// MaxPages bounds cached pages (LRU evicts clean pages beyond it).
	// Default 4096 (16MiB).
	MaxPages int
	// MaxDirty bounds the dirty set across all files; exceeding it flushes
	// the oldest dirty pages synchronously on the writer's clock. Default
	// MaxPages/8.
	MaxDirty int
	// HitLatNS and HitNSPerByte price a cache hit (DRAM-class: no syscall,
	// no device). Defaults 60ns + 0.025ns/B.
	HitLatNS     int64
	HitNSPerByte float64
}

func (c Config) withDefaults() Config {
	if c.MaxPages <= 0 {
		c.MaxPages = 4096
	}
	if c.MaxDirty <= 0 {
		c.MaxDirty = c.MaxPages / 8
		if c.MaxDirty < 1 {
			c.MaxDirty = 1
		}
	}
	if c.HitLatNS <= 0 {
		c.HitLatNS = 60
	}
	if c.HitNSPerByte <= 0 {
		c.HitNSPerByte = 0.025
	}
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness, used by the
// winebench -cache sweep and the no-lost-writeback audit cross-check.
type Stats struct {
	Hits, Misses       int64
	HitBytes           int64
	MissBytes          int64
	FlushedBytes       int64 // dirty bytes written back to the server
	WriteThroughBytes  int64 // bytes written synchronously (appends, unleased writes)
	Evictions, Revokes int64
	FlushErrors        int64
	// MapBypasses counts memory mappings attached through cached handles:
	// each one flushed and dropped the ino's pages and released its lease
	// (DAX stores bypass the lease protocol, so the cache must step aside).
	MapBypasses       int64
	Pages, DirtyPages int
	AttrEntries       int
}

// maxAttrs bounds the attribute map; overflowing clears it (attribute
// entries are cheap to refill and only servable under a lease anyway).
const maxAttrs = 4096

// Cache wraps inner with the page/attribute cache. One Cache corresponds
// to one client session; it is safe for concurrent use by the session's
// goroutines.
type Cache struct {
	inner vfs.FS
	cfg   Config

	// flushMu serialises write-back batches (threshold flush, fsync,
	// close, revoke) so dirty data reaches the server in collection order.
	// Lock order: flushMu before mu; mu is never held across an RPC.
	flushMu  sync.Mutex
	flushCtx *sim.Ctx // clock for revoke-driven flushes; guarded by flushMu
	// flushBuf carries a threshold-flush victim's bytes across the RPC.
	// Guarded by flushMu, so one buffer serves every threshold flush. The
	// RPC cannot read the frame itself: with mu released a concurrent
	// writer may change it, or eviction may hand it to another page.
	flushBuf [PageSize]byte

	mu    sync.Mutex
	files map[uint64]*fileState
	// lru holds every cached page, most recently used first. dirty holds
	// the dirty ones in the same relative order (see markDirtyLocked), so
	// its back is the page a scan of lru from the back would reach first.
	lru, dirty pageList
	// free holds unlinked frames for reuse, chained through their lru next
	// link; releaseLocked bounds it so free + cached frames stay within
	// MaxPages.
	free       *page
	nfree      int
	attrs      map[string]vfs.FileInfo
	attrsByIno map[uint64]map[string]struct{}
	// mapped counts live memory mappings per ino (mmap.go): while
	// non-zero the ino is served pass-through and new opens don't lease.
	mapped map[uint64]int
	stats  Stats
}

var _ vfs.FS = (*Cache)(nil)

// New wraps inner. When inner can deliver revocations (fileserver.Client),
// the cache's flush-and-invalidate handler is installed; otherwise leases
// can still be held but never revoked, which is only sound for
// single-mount use — the tests' stub FS.
func New(inner vfs.FS, cfg Config) *Cache {
	c := &Cache{
		inner:      inner,
		cfg:        cfg.withDefaults(),
		flushCtx:   sim.NewCtx(flusherThreadBase+int(flusherSeq.Add(1)), 0),
		files:      make(map[uint64]*fileState),
		lru:        pageList{k: lruLink},
		dirty:      pageList{k: dirtyLink},
		attrs:      make(map[string]vfs.FileInfo),
		attrsByIno: make(map[uint64]map[string]struct{}),
		mapped:     make(map[uint64]int),
	}
	if rs, ok := inner.(RevokeSource); ok {
		rs.SetRevokeHandler(c.revoked)
	}
	return c
}

// Stats snapshots effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Pages = c.lru.n
	st.DirtyPages = c.dirty.n
	st.AttrEntries = len(c.attrs)
	return st
}

// Lease modes as the cache tracks them client-side.
const (
	modeNone uint8 = iota
	modeRead
	modeWrite
)

// fileState is the cached view of one leased ino.
type fileState struct {
	ino   uint64
	refs  int   // open cachedFile handles
	mode  uint8 // client-side lease view; modeNone = pass-through
	size  int64 // local authoritative size while leased
	pages map[int64]*page
	dirty int
	// flushFile is the open inner file write-backs go through; reassigned
	// when the handle it came from closes before the others.
	flushFile vfs.File
	handles   map[*cachedFile]struct{}
	// flushErr is a failed write-back, held until the next operation on
	// the file observes it: dirty pages are never dropped silently.
	flushErr error
}

func (st *fileState) takeErrLocked() error {
	err := st.flushErr
	st.flushErr = nil
	return err
}

// page is one cached 4KiB-aligned granule. Bytes past the file size are
// zero, matching hole semantics, and the valid length is governed by the
// fileState's size at read time. The struct is also the frame: an evicted
// or dropped page waits on the cache's free list and is linked again under
// another (st, idx), so a miss in a full cache allocates nothing.
type page struct {
	st    *fileState // nil while the frame is unlinked
	idx   int64
	dirty bool
	link  [2]struct{ prev, next *page } // indexed by lruLink, dirtyLink
	data  [PageSize]byte
}

const (
	lruLink = iota
	dirtyLink
)

// pageList is an intrusive doubly linked list threaded through link[k] of
// its pages: front is the most recently used end, and next leads towards
// the back.
type pageList struct {
	k           int
	front, back *page
	n           int
}

func (l *pageList) pushFront(pg *page) {
	ln := &pg.link[l.k]
	ln.prev, ln.next = nil, l.front
	if l.front != nil {
		l.front.link[l.k].prev = pg
	} else {
		l.back = pg
	}
	l.front = pg
	l.n++
}

func (l *pageList) remove(pg *page) {
	ln := &pg.link[l.k]
	if ln.prev != nil {
		ln.prev.link[l.k].next = ln.next
	} else {
		l.front = ln.next
	}
	if ln.next != nil {
		ln.next.link[l.k].prev = ln.prev
	} else {
		l.back = ln.prev
	}
	ln.prev, ln.next = nil, nil
	l.n--
}

func (l *pageList) moveToFront(pg *page) {
	if l.front != pg {
		l.remove(pg)
		l.pushFront(pg)
	}
}

func (c *Cache) hitCost(n int) int64 {
	return c.cfg.HitLatNS + int64(float64(n)*c.cfg.HitNSPerByte)
}

// --- vfs.FS ---

// Name reports the wrapped file system's name: the cache is transparent.
func (c *Cache) Name() string { return c.inner.Name() }

// Mode implements vfs.FS.
func (c *Cache) Mode() vfs.ConsistencyMode { return c.inner.Mode() }

// Create implements vfs.FS.
func (c *Cache) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, path, true)
}

// Open implements vfs.FS.
func (c *Cache) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, path, false)
}

// openLike opens/creates through the inner FS and, when the file supports
// leases and the server grants one, registers cached state for its ino.
// Every path is canonicalized with vfs.Clean before it is used as a cache
// key, so "/a//b" and "/a/b" can never produce two entries for one file.
func (c *Cache) openLike(ctx *sim.Ctx, path string, create bool) (vfs.File, error) {
	path = vfs.Clean(path)
	var f vfs.File
	var err error
	if create {
		f, err = c.inner.Create(ctx, path)
	} else {
		f, err = c.inner.Open(ctx, path)
	}
	if err != nil {
		return nil, err
	}
	if create {
		c.mu.Lock()
		c.attrDropLocked(path)
		c.mu.Unlock()
	}
	lf, ok := f.(Leasable)
	if !ok {
		return f, nil
	}
	// A live local mapping pins the ino in bypass: no lease, no caching,
	// every access passes through (coherent with DAX stores by
	// construction).
	c.mu.Lock()
	bypass := c.mapped[f.Ino()] > 0
	c.mu.Unlock()
	if bypass {
		return f, nil
	}
	granted, lerr := lf.Lease(ctx, false)
	if lerr != nil || !granted {
		return f, nil // refused or transport trouble: serve uncached
	}
	c.mu.Lock()
	st := c.files[f.Ino()]
	if st == nil {
		st = &fileState{
			ino:     f.Ino(),
			mode:    modeRead,
			size:    f.Size(),
			pages:   make(map[int64]*page),
			handles: make(map[*cachedFile]struct{}),
		}
		c.files[st.ino] = st
	}
	st.refs++
	if st.flushFile == nil {
		st.flushFile = f
	}
	cf := &cachedFile{c: c, st: st, inner: f, lf: lf}
	st.handles[cf] = struct{}{}
	c.mu.Unlock()
	return cf, nil
}

// Mkdir implements vfs.FS.
func (c *Cache) Mkdir(ctx *sim.Ctx, path string) error {
	return c.inner.Mkdir(ctx, vfs.Clean(path))
}

// Unlink implements vfs.FS.
func (c *Cache) Unlink(ctx *sim.Ctx, path string) error {
	path = vfs.Clean(path)
	err := c.inner.Unlink(ctx, path)
	if err == nil {
		c.mu.Lock()
		c.attrDropLocked(path)
		c.mu.Unlock()
	}
	return err
}

// Rmdir implements vfs.FS.
func (c *Cache) Rmdir(ctx *sim.Ctx, path string) error {
	path = vfs.Clean(path)
	err := c.inner.Rmdir(ctx, path)
	if err == nil {
		c.mu.Lock()
		c.attrDropPrefixLocked(path)
		c.mu.Unlock()
	}
	return err
}

// Rename implements vfs.FS. Attribute entries under either name are
// dropped: a rename moves whole subtrees, so prefix entries die too.
func (c *Cache) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	oldPath, newPath = vfs.Clean(oldPath), vfs.Clean(newPath)
	err := c.inner.Rename(ctx, oldPath, newPath)
	if err == nil {
		c.mu.Lock()
		c.attrDropPrefixLocked(oldPath)
		c.attrDropPrefixLocked(newPath)
		c.mu.Unlock()
	}
	return err
}

// Stat implements vfs.FS. An attribute entry is served only while its ino
// is leased — that is what keeps it coherent: any other session's change
// would have revoked the lease (and dropped the entry) first. The size
// reported is the local leased size, which reflects buffered dirty
// extensions.
func (c *Cache) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	path = vfs.Clean(path)
	c.mu.Lock()
	if fi, ok := c.attrs[path]; ok {
		if st := c.files[fi.Ino]; st != nil && st.mode != modeNone {
			fi.Size = st.size
			c.stats.Hits++
			ctx.Counters.CacheHits++
			c.mu.Unlock()
			ctx.Advance(c.cfg.HitLatNS)
			return fi, nil
		}
	}
	c.mu.Unlock()
	fi, err := c.inner.Stat(ctx, path)
	if err != nil {
		return fi, err
	}
	ctx.Counters.CacheMisses++
	c.mu.Lock()
	c.stats.Misses++
	if !fi.IsDir {
		c.attrPutLocked(path, fi)
	}
	c.mu.Unlock()
	return fi, nil
}

// ReadDir implements vfs.FS (pass-through; listings are not cached).
func (c *Cache) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	return c.inner.ReadDir(ctx, vfs.Clean(path))
}

// StatFS implements vfs.FS.
func (c *Cache) StatFS(ctx *sim.Ctx) vfs.StatFS { return c.inner.StatFS(ctx) }

// FreeExtents implements vfs.FS.
func (c *Cache) FreeExtents() []alloc.Extent { return c.inner.FreeExtents() }

// Unmount flushes every dirty page, drops all cached state and unmounts
// the wrapped FS.
func (c *Cache) Unmount(ctx *sim.Ctx) error {
	c.flushMu.Lock()
	c.mu.Lock()
	var batch []writeback
	var ferr error
	for _, st := range c.files {
		batch = append(batch, c.collectDirtyLocked(st)...)
		if st.flushErr != nil && ferr == nil {
			ferr = st.takeErrLocked()
		}
		st.mode = modeNone
		c.dropPagesLocked(st)
	}
	c.files = make(map[uint64]*fileState)
	c.attrs = make(map[string]vfs.FileInfo)
	c.attrsByIno = make(map[uint64]map[string]struct{})
	c.mu.Unlock()
	werr := c.writeBack(ctx, batch)
	c.flushMu.Unlock()
	uerr := c.inner.Unmount(ctx)
	if ferr != nil {
		return ferr
	}
	if werr != nil {
		return werr
	}
	return uerr
}

// --- attribute cache (guarded by mu) ---

func (c *Cache) attrPutLocked(path string, fi vfs.FileInfo) {
	if len(c.attrs) >= maxAttrs {
		c.attrs = make(map[string]vfs.FileInfo)
		c.attrsByIno = make(map[uint64]map[string]struct{})
	}
	c.attrs[path] = fi
	set := c.attrsByIno[fi.Ino]
	if set == nil {
		set = make(map[string]struct{})
		c.attrsByIno[fi.Ino] = set
	}
	set[path] = struct{}{}
}

func (c *Cache) attrDropLocked(path string) {
	if fi, ok := c.attrs[path]; ok {
		delete(c.attrs, path)
		if set := c.attrsByIno[fi.Ino]; set != nil {
			delete(set, path)
			if len(set) == 0 {
				delete(c.attrsByIno, fi.Ino)
			}
		}
	}
}

func (c *Cache) attrDropPrefixLocked(path string) {
	c.attrDropLocked(path)
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for p := range c.attrs {
		if len(p) > len(prefix) && p[:len(prefix)] == prefix {
			c.attrDropLocked(p)
		}
	}
}

func (c *Cache) attrDropInoLocked(ino uint64) {
	for p := range c.attrsByIno[ino] {
		delete(c.attrs, p)
	}
	delete(c.attrsByIno, ino)
}

// --- page LRU (guarded by mu) ---

// touchLocked makes pg the most recently used page, on both lists if it is
// dirty: the dirty list must keep the LRU's relative order.
func (c *Cache) touchLocked(pg *page) {
	c.lru.moveToFront(pg)
	if pg.dirty {
		c.dirty.moveToFront(pg)
	}
}

// markDirtyLocked puts a clean page on the dirty list. The page must be at
// the LRU front — just linked or just touched — which is what keeps the
// dirty list a subsequence of the LRU in the same order: a page enters
// both at the front, touchLocked moves it in both, and removing a page
// from either leaves the order of the rest alone.
func (c *Cache) markDirtyLocked(pg *page) {
	if !pg.dirty {
		pg.dirty = true
		pg.st.dirty++
		c.dirty.pushFront(pg)
	}
}

func (c *Cache) markCleanLocked(pg *page) {
	if pg.dirty {
		pg.dirty = false
		pg.st.dirty--
		c.dirty.remove(pg)
	}
}

// frameLocked returns an unlinked frame the caller owns until it links or
// releases it. A recycled frame holds stale bytes: the caller overwrites
// or clears all of data before linking.
func (c *Cache) frameLocked() *page {
	pg := c.free
	if pg == nil {
		return new(page)
	}
	c.free = pg.link[lruLink].next
	pg.link[lruLink].next = nil
	c.nfree--
	return pg
}

// releaseLocked takes back an unlinked frame. Frames beyond what the cache
// could link again without evicting are left to the collector, so the free
// list never holds memory a full cache would not have held anyway.
func (c *Cache) releaseLocked(pg *page) {
	pg.st = nil
	if c.nfree+c.lru.n < c.cfg.MaxPages {
		pg.link[lruLink].next = c.free
		c.free = pg
		c.nfree++
	}
}

// linkLocked makes the frame pg the cached page (st, idx), most recently
// used, evicting the least recently used clean pages when over MaxPages.
// Dirty pages are never evicted — the dirty bound plus synchronous
// threshold flushing keeps their count bounded separately. Evictions are
// charged to the inserting thread's counters.
func (c *Cache) linkLocked(ctx *sim.Ctx, st *fileState, idx int64, pg *page) {
	for c.lru.n >= c.cfg.MaxPages {
		if !c.evictOneLocked(ctx) {
			break
		}
	}
	pg.st, pg.idx = st, idx
	c.lru.pushFront(pg)
	st.pages[idx] = pg
}

// insertPageLocked links an all-zero page for (st, idx): one born from a
// write or an append rather than a fetch.
func (c *Cache) insertPageLocked(ctx *sim.Ctx, st *fileState, idx int64) *page {
	pg := c.frameLocked()
	clear(pg.data[:])
	c.linkLocked(ctx, st, idx, pg)
	return pg
}

// evictOneLocked evicts the least recently used clean page. The dirty pages
// it steps over are those older than every clean page: at most MaxDirty,
// and none in steady state, because the threshold flush cleans from the
// same end.
func (c *Cache) evictOneLocked(ctx *sim.Ctx) bool {
	for pg := c.lru.back; pg != nil; pg = pg.link[lruLink].prev {
		if pg.dirty {
			continue
		}
		c.removePageLocked(pg)
		c.stats.Evictions++
		ctx.Counters.CacheEvictions++
		return true
	}
	return false
}

func (c *Cache) unlinkLocked(pg *page) {
	c.markCleanLocked(pg)
	c.lru.remove(pg)
	c.releaseLocked(pg)
}

func (c *Cache) removePageLocked(pg *page) {
	delete(pg.st.pages, pg.idx)
	c.unlinkLocked(pg)
}

func (c *Cache) dropPagesLocked(st *fileState) {
	for _, pg := range st.pages {
		c.unlinkLocked(pg)
	}
	clear(st.pages)
}

// --- write-back ---

// writeback is one flushable unit: a page's valid byte range, copied out
// under mu so the RPC can run without it.
type writeback struct {
	st   *fileState
	wf   vfs.File
	off  int64
	data []byte
}

// collectDirtyLocked clears the dirty mark on every dirty page of st and
// returns their valid ranges in ascending offset order (so any holes the
// server materialises match what direct pass-through writes would have
// produced). Pages stay cached as clean copies.
func (c *Cache) collectDirtyLocked(st *fileState) []writeback {
	var out []writeback
	for _, pg := range st.pages {
		if !pg.dirty {
			continue
		}
		c.markCleanLocked(pg)
		out = append(out, c.extractLocked(pg, nil))
	}
	slices.SortFunc(out, func(a, b writeback) int { return cmp.Compare(a.off, b.off) })
	return out
}

// extractLocked copies a page's valid range for write-back, into buf when
// it has the room. The caller has already cleared the dirty bookkeeping.
func (c *Cache) extractLocked(pg *page, buf []byte) writeback {
	off := pg.idx * PageSize
	n := int64(PageSize)
	if off+n > pg.st.size {
		n = pg.st.size - off
	}
	return writeback{st: pg.st, wf: pg.st.flushFile, off: off, data: append(buf[:0], pg.data[:n]...)}
}

// writeBack pushes a batch to the server on ctx's clock. Failures stick to
// the owning file (surfaced on its next operation) and drop the failed
// page — visibly, via the error, never silently. Caller holds flushMu and
// must NOT hold mu.
func (c *Cache) writeBack(ctx *sim.Ctx, batch []writeback) error {
	if len(batch) > 0 {
		sp := ctx.StartSpan("cache.writeback")
		defer ctx.EndSpan(sp)
	}
	var first error
	for _, b := range batch {
		if len(b.data) == 0 {
			continue
		}
		var err error
		if b.wf == nil {
			err = vfs.ErrClosed
		} else {
			_, err = b.wf.WriteAt(ctx, b.data, b.off)
		}
		c.mu.Lock()
		if err != nil {
			b.st.flushErr = err
			c.stats.FlushErrors++
			if pg := b.st.pages[b.off/PageSize]; pg != nil {
				c.removePageLocked(pg)
			}
			if first == nil {
				first = err
			}
		} else {
			c.stats.FlushedBytes += int64(len(b.data))
			ctx.Counters.CacheFlushBytes += int64(len(b.data))
		}
		c.mu.Unlock()
	}
	if len(batch) > 0 {
		ctx.Counters.CacheFlushes++
	}
	return first
}

// flushExcess flushes oldest-first until the dirty set is back under
// MaxDirty. Runs on the writer's clock: exceeding the dirty bound is what
// makes write-back caching pay its device cost. The oldest dirty page is
// the back of the dirty list — the page a scan of the LRU from its back
// would meet first.
func (c *Cache) flushExcess(ctx *sim.Ctx) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	var first error
	for {
		c.mu.Lock()
		victim := c.dirty.back
		if c.dirty.n <= c.cfg.MaxDirty || victim == nil {
			c.mu.Unlock()
			return first
		}
		c.markCleanLocked(victim)
		b := c.extractLocked(victim, c.flushBuf[:])
		c.mu.Unlock()
		if err := c.writeBack(ctx, []writeback{b}); err != nil && first == nil {
			first = err
		}
	}
}

// flushFile synchronously writes back every dirty page of st.
func (c *Cache) flushFile(ctx *sim.Ctx, st *fileState) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	batch := c.collectDirtyLocked(st)
	c.mu.Unlock()
	return c.writeBack(ctx, batch)
}

// revoked is the lease-revocation handler installed on the transport: the
// server is holding a conflicting request until this returns. Flush every
// dirty page, then drop everything cached for the ino; the file reverts to
// pass-through until reopened. Flushes run on the cache's own flusher
// clock — the session's workload threads are mid-operation on theirs.
func (c *Cache) revoked(ino uint64) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	sp := c.flushCtx.StartSpan("cache.revoke")
	defer c.flushCtx.EndSpan(sp)
	c.mu.Lock()
	st := c.files[ino]
	if st == nil {
		c.mu.Unlock()
		return
	}
	st.mode = modeNone
	batch := c.collectDirtyLocked(st)
	c.attrDropInoLocked(ino)
	c.stats.Revokes++
	c.flushCtx.Counters.CacheRevokes++
	c.mu.Unlock()
	c.writeBack(c.flushCtx, batch)
	c.mu.Lock()
	c.dropPagesLocked(st)
	c.mu.Unlock()
}
