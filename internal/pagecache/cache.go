// Package pagecache is the client-side caching subsystem of the serving
// stack: it wraps any vfs.FS — in practice a fileserver.Client — and keeps
// 4KiB-aligned data pages plus attribute entries in a bounded cache, so a
// hot working set is served at DRAM cost instead of paying the full
// RPC + device cost on every access (the SplitFS observation: route the
// data path around the server, keep the server authoritative for
// metadata). Replacement is scan-resistant: a page enters an inactive
// FIFO and only a second touch moves it to the active LRU, so pages read
// once pass through without pushing out the pages read often (DESIGN.md
// §9, Replacement).
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
// cost (hitLatNS + hitNSPerByte·n, no syscall — the point of a user-level
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
	// MaxPages bounds cached pages (clean pages are evicted beyond it,
	// inactive ones first). Default 4096 (16MiB).
	MaxPages int
	// MaxDirty bounds the dirty set across all files; exceeding it flushes
	// dirty pages synchronously on the writer's clock, in the order
	// eviction would take them. Default MaxPages/8.
	MaxDirty int
}

// hitLatNS and hitNSPerByte price a cache hit (DRAM-class: no syscall,
// no device).
const (
	hitLatNS     = 60
	hitNSPerByte = 0.025
)

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
	// ActivePages is how many of Pages sit on the active list. Promotions
	// counts second touches (inactive to active), Demotions the pages
	// eviction moved back to keep the inactive list at its share.
	ActivePages           int
	Promotions, Demotions int64
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
	// wbBatch and wbData are the memory of a batch write-back (fsync,
	// close, revoke, mapping, unmount): the entries and the page bytes
	// they point at. Guarded by flushMu, which the caller holds from
	// collectDirtyLocked until writeBack returns; writeBack lets go of
	// either once it has outgrown maxKeptBatch pages.
	wbBatch []writeback
	wbData  []byte

	mu    sync.Mutex
	files map[uint64]*fileState
	// inactive and active hold every cached page between them (DESIGN.md
	// §9, Replacement). A page is linked at the inactive front by the
	// access that brought it in and leaves from the inactive back unless a
	// second touch promoted it first; active is an LRU of the promoted
	// pages, and eviction demotes its back to the inactive front whenever
	// inactive is under a quarter of MaxPages.
	inactive, active queue
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

// maxKeptBatch is the largest batch write-back, in pages, whose memory the
// cache keeps for the next one; a bigger one (a file rewritten whole, an
// unmount) is left to the collector, so an idle cache holds kilobytes.
const maxKeptBatch = 64

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
		inactive:   newQueue(),
		active:     newQueue(),
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
	st.Pages = c.pagesLocked()
	st.DirtyPages = c.dirtyLocked()
	st.ActivePages = c.active.pages.n
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
	st     *fileState // nil while the frame is unlinked
	idx    int64
	dirty  bool
	active bool                          // on the active queue, not the inactive one
	link   [2]struct{ prev, next *page } // indexed by lruLink, dirtyLink
	data   [PageSize]byte
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

// queue is one replacement list: its pages through their lruLink, most
// recently linked or used first, and the dirty ones among them through
// their dirtyLink in the same relative order. That order is the invariant
// the O(1) victim choices rest on — the back of dirty is the page a scan of
// pages from the back would reach first — and it holds because every
// method moves a dirty page on both lists at once, always to the front,
// and removing a page from either leaves the order of the rest alone.
type queue struct {
	pages, dirty pageList
}

func newQueue() queue {
	return queue{pages: pageList{k: lruLink}, dirty: pageList{k: dirtyLink}}
}

func (q *queue) pushFront(pg *page) {
	q.pages.pushFront(pg)
	if pg.dirty {
		q.dirty.pushFront(pg)
	}
}

func (q *queue) remove(pg *page) {
	q.pages.remove(pg)
	if pg.dirty {
		q.dirty.remove(pg)
	}
}

func (q *queue) moveToFront(pg *page) {
	q.pages.moveToFront(pg)
	if pg.dirty {
		q.dirty.moveToFront(pg)
	}
}

// oldestClean returns the page nearest the back that is not dirty. The
// dirty pages it steps over are those older than every clean page: at most
// MaxDirty, and none in steady state, because the threshold flush cleans
// from the same end.
func (q *queue) oldestClean() *page {
	pg := q.pages.back
	for pg != nil && pg.dirty {
		pg = pg.link[lruLink].prev
	}
	return pg
}

func (c *Cache) hitCost(n int) int64 {
	return hitLatNS + int64(float64(n)*hitNSPerByte)
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
			ctx.Advance(hitLatNS)
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
		batch = c.collectDirtyLocked(st, batch)
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

// --- replacement (guarded by mu) ---

func (c *Cache) queueOf(pg *page) *queue {
	if pg.active {
		return &c.active
	}
	return &c.inactive
}

func (c *Cache) pagesLocked() int { return c.inactive.pages.n + c.active.pages.n }
func (c *Cache) dirtyLocked() int { return c.inactive.dirty.n + c.active.dirty.n }

// touchLocked records a use of a cached page. The touch after the access
// that linked it promotes an inactive page to the active front — a second
// use is the evidence that a page is not part of a scan — and an active
// page just becomes the most recently used one.
func (c *Cache) touchLocked(pg *page) {
	if pg.active {
		c.active.moveToFront(pg)
		return
	}
	c.inactive.remove(pg)
	pg.active = true
	c.active.pushFront(pg)
	c.stats.Promotions++
}

// markDirtyLocked puts a clean page on its queue's dirty list. The page
// must be at the front of that queue — just linked or just touched — or the
// dirty list would stop being in the queue's order.
func (c *Cache) markDirtyLocked(pg *page) {
	if !pg.dirty {
		pg.dirty = true
		pg.st.dirty++
		c.queueOf(pg).dirty.pushFront(pg)
	}
}

func (c *Cache) markCleanLocked(pg *page) {
	if pg.dirty {
		pg.dirty = false
		pg.st.dirty--
		c.queueOf(pg).dirty.remove(pg)
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
	if c.nfree+c.pagesLocked() < c.cfg.MaxPages {
		pg.link[lruLink].next = c.free
		c.free = pg
		c.nfree++
	}
}

// linkLocked makes the frame pg the cached page (st, idx) at the inactive
// front — the one way a page enters the cache — evicting clean pages when
// over MaxPages. Dirty pages are never evicted — the dirty bound plus
// synchronous threshold flushing keeps their count bounded separately.
// Evictions are charged to the inserting thread's counters.
func (c *Cache) linkLocked(ctx *sim.Ctx, st *fileState, idx int64, pg *page) {
	for c.pagesLocked() >= c.cfg.MaxPages {
		if !c.evictOneLocked(ctx) {
			break
		}
	}
	pg.st, pg.idx = st, idx
	c.inactive.pushFront(pg)
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

// evictOneLocked evicts the oldest clean inactive page, or the least
// recently used clean active page when every inactive page is dirty. First
// it tops the inactive list up: under a quarter of MaxPages (2Q's share for
// its probation queue) the least recently used active page is demoted to
// the inactive front, where it has a quarter of the cache's insertions to
// be touched again before it is the one to go. An active set that leaves
// the inactive list its quarter is never demoted, so never evicted.
func (c *Cache) evictOneLocked(ctx *sim.Ctx) bool {
	if pg := c.active.pages.back; pg != nil && c.inactive.pages.n < c.cfg.MaxPages/4 {
		c.active.remove(pg)
		pg.active = false
		c.inactive.pushFront(pg)
		c.stats.Demotions++
	}
	pg := c.inactive.oldestClean()
	if pg == nil {
		pg = c.active.oldestClean()
	}
	if pg == nil {
		return false
	}
	c.removePageLocked(pg)
	c.stats.Evictions++
	ctx.Counters.CacheEvictions++
	return true
}

func (c *Cache) unlinkLocked(pg *page) {
	c.markCleanLocked(pg)
	c.queueOf(pg).pages.remove(pg)
	pg.active = false
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
// appends their valid ranges to batch in ascending offset order (so any
// holes the server materialises match what direct pass-through writes
// would have produced). Pages stay cached as clean copies. A nil batch
// starts a new one in the cache's scratch, so the caller holds flushMu
// until the batch is written back; passing an earlier result back adds
// another file's pages to the same write-back.
func (c *Cache) collectDirtyLocked(st *fileState, batch []writeback) []writeback {
	if batch == nil {
		batch, c.wbData = c.wbBatch[:0], c.wbData[:0]
	}
	if room := st.dirty * PageSize; cap(c.wbData)-len(c.wbData) < room {
		// Entries collected so far keep the array they point into.
		c.wbData = make([]byte, 0, room)
	}
	first := len(batch)
	for _, pg := range st.pages {
		if !pg.dirty {
			continue
		}
		c.markCleanLocked(pg)
		b := c.extractLocked(pg, c.wbData[len(c.wbData):])
		c.wbData = c.wbData[:len(c.wbData)+len(b.data)]
		batch = append(batch, b)
	}
	slices.SortFunc(batch[first:], func(a, b writeback) int { return cmp.Compare(a.off, b.off) })
	c.wbBatch = batch
	return batch
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
	if cap(c.wbBatch) > maxKeptBatch {
		c.wbBatch = nil
	}
	if cap(c.wbData) > maxKeptBatch*PageSize {
		c.wbData = nil
	}
	return first
}

// flushExcess flushes until the dirty set is back under MaxDirty. Runs on
// the writer's clock: exceeding the dirty bound is what makes write-back
// caching pay its device cost. Victims go in eviction's order — the oldest
// dirty inactive page, which is the back of that queue's dirty list, and
// the least recently used dirty active page only when no inactive page is
// dirty — so a page written once leaves first and a page that is written
// again and again stays dirty to absorb the next write.
func (c *Cache) flushExcess(ctx *sim.Ctx) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	var first error
	for {
		c.mu.Lock()
		victim := c.inactive.dirty.back
		if victim == nil {
			victim = c.active.dirty.back
		}
		if c.dirtyLocked() <= c.cfg.MaxDirty || victim == nil {
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
	batch := c.collectDirtyLocked(st, nil)
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
	batch := c.collectDirtyLocked(st, nil)
	c.attrDropInoLocked(ino)
	c.stats.Revokes++
	c.flushCtx.Counters.CacheRevokes++
	c.mu.Unlock()
	c.writeBack(c.flushCtx, batch)
	c.mu.Lock()
	c.dropPagesLocked(st)
	c.mu.Unlock()
}
