package pagecache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fstest"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// refCache is the page cache as it was before the dirty list and the frame
// free list: one slice in LRU order, most recently used first, and linear
// scans from its tail — for the eviction victim and for the oldest dirty
// page. It is single-threaded, has one handle per file and no attribute
// cache; everything that decides which page is fetched, flushed or evicted
// is kept. TestModelEquivalence replays one operation stream through it and
// through the real cache and requires that they never differ.
type refCache struct {
	cfg      Config
	flushCtx *sim.Ctx
	lru      []*refPage
	stats    Stats
	evicted  []pageKey
}

type pageKey struct {
	ino   uint64
	idx   int64
	dirty bool
}

type refPage struct {
	pageKey
	data [PageSize]byte
}

type refFile struct {
	c     *refCache
	inner vfs.File
	ino   uint64
	mode  uint8
	size  int64
}

func (c *refCache) open(ctx *sim.Ctx, fs vfs.FS, path string) (*refFile, error) {
	f, err := fs.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return &refFile{c: c, inner: f, ino: f.Ino(), mode: modeRead, size: f.Size()}, nil
}

func (c *refCache) hitCost(n int) int64 {
	return c.cfg.HitLatNS + int64(float64(n)*c.cfg.HitNSPerByte)
}

func (c *refCache) find(ino uint64, idx int64) *refPage {
	for _, pg := range c.lru {
		if pg.ino == ino && pg.idx == idx {
			return pg
		}
	}
	return nil
}

func (c *refCache) touch(pg *refPage) {
	i := slices.Index(c.lru, pg)
	copy(c.lru[1:i+1], c.lru[:i])
	c.lru[0] = pg
}

func (c *refCache) insert(ctx *sim.Ctx, ino uint64, idx int64) *refPage {
	for len(c.lru) >= c.cfg.MaxPages {
		if !c.evictOne(ctx) {
			break
		}
	}
	pg := &refPage{pageKey: pageKey{ino: ino, idx: idx}}
	c.lru = slices.Insert(c.lru, 0, pg)
	return pg
}

func (c *refCache) evictOne(ctx *sim.Ctx) bool {
	for i := len(c.lru) - 1; i >= 0; i-- {
		if pg := c.lru[i]; !pg.dirty {
			c.lru = slices.Delete(c.lru, i, i+1)
			c.evicted = append(c.evicted, pg.pageKey)
			c.stats.Evictions++
			ctx.Counters.CacheEvictions++
			return true
		}
	}
	return false
}

func (c *refCache) dirtyTotal() int {
	n := 0
	for _, pg := range c.lru {
		if pg.dirty {
			n++
		}
	}
	return n
}

func (c *refCache) dropPages(ino uint64) {
	c.lru = slices.DeleteFunc(c.lru, func(pg *refPage) bool { return pg.ino == ino })
}

type refWriteback struct {
	off  int64
	data []byte
}

func (f *refFile) extract(pg *refPage) refWriteback {
	off := pg.idx * PageSize
	n := min(int64(PageSize), f.size-off)
	return refWriteback{off: off, data: bytes.Clone(pg.data[:n])}
}

func (f *refFile) collectDirty() []refWriteback {
	var out []refWriteback
	for _, pg := range f.c.lru {
		if pg.ino == f.ino && pg.dirty {
			pg.dirty = false
			out = append(out, f.extract(pg))
		}
	}
	slices.SortFunc(out, func(a, b refWriteback) int { return int(a.off - b.off) })
	return out
}

func (f *refFile) writeBack(ctx *sim.Ctx, batch []refWriteback) error {
	for _, b := range batch {
		if len(b.data) == 0 {
			continue
		}
		if _, err := f.inner.WriteAt(ctx, b.data, b.off); err != nil {
			return err // the stream injects no write errors
		}
		f.c.stats.FlushedBytes += int64(len(b.data))
		ctx.Counters.CacheFlushBytes += int64(len(b.data))
	}
	if len(batch) > 0 {
		ctx.Counters.CacheFlushes++
	}
	return nil
}

// flushExcess is the scan the dirty list replaced: from the LRU tail,
// through however many clean pages, to the oldest dirty one.
func (c *refCache) flushExcess(ctx *sim.Ctx, files map[uint64]*refFile) error {
	for c.dirtyTotal() > c.cfg.MaxDirty {
		var victim *refPage
		for i := len(c.lru) - 1; i >= 0; i-- {
			if c.lru[i].dirty {
				victim = c.lru[i]
				break
			}
		}
		victim.dirty = false
		f := files[victim.ino]
		if err := f.writeBack(ctx, []refWriteback{f.extract(victim)}); err != nil {
			return err
		}
	}
	return nil
}

func (f *refFile) flushFile(ctx *sim.Ctx) error { return f.writeBack(ctx, f.collectDirty()) }

func (f *refFile) readAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	c := f.c
	if f.mode == modeNone {
		return f.inner.ReadAt(ctx, p, off)
	}
	if off < 0 || off >= f.size {
		return 0, nil
	}
	n := int(min(int64(len(p)), f.size-off))
	total := 0
	for total < n {
		cur := off + int64(total)
		idx, pgOff := cur/PageSize, int(cur%PageSize)
		chunk := min(PageSize-pgOff, n-total)
		if pg := c.find(f.ino, idx); pg != nil {
			copy(p[total:total+chunk], pg.data[pgOff:pgOff+chunk])
			c.touch(pg)
			c.stats.Hits++
			c.stats.HitBytes += int64(chunk)
			ctx.Counters.CacheHits++
			ctx.Counters.CacheHitBytes += int64(chunk)
			ctx.Advance(c.hitCost(chunk))
			total += chunk
			continue
		}
		var buf [PageSize]byte
		m, err := f.inner.ReadAt(ctx, buf[:], idx*PageSize)
		if err != nil {
			return total, err
		}
		ctx.Counters.CacheMisses++
		ctx.Counters.CacheMissBytes += int64(m)
		c.stats.Misses++
		c.stats.MissBytes += int64(m)
		c.insert(ctx, f.ino, idx).data = buf
		copy(p[total:total+chunk], buf[pgOff:pgOff+chunk])
		total += chunk
	}
	return total, nil
}

func (f *refFile) writeThrough(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(ctx, p, off)
	f.c.stats.WriteThroughBytes += int64(n)
	return n, err // mode is none: no page of the file is cached to overlay
}

func (f *refFile) writeAt(ctx *sim.Ctx, p []byte, off int64, files map[uint64]*refFile) (int, error) {
	c := f.c
	if f.mode == modeNone {
		return f.writeThrough(ctx, p, off)
	}
	f.mode = modeWrite // the stub FS grants every lease
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		idx, pgOff := cur/PageSize, int(cur%PageSize)
		chunk := min(PageSize-pgOff, len(p)-total)
		pg := c.find(f.ino, idx)
		if pg == nil {
			pageStart := idx * PageSize
			validEnd := min(f.size, pageStart+PageSize)
			if covers := cur <= pageStart && cur+int64(chunk) >= validEnd; covers {
				pg = c.insert(ctx, f.ino, idx)
			} else {
				var buf [PageSize]byte
				if _, err := f.inner.ReadAt(ctx, buf[:], pageStart); err != nil {
					return total, err
				}
				ctx.Counters.CacheMisses++
				c.stats.Misses++
				pg = c.insert(ctx, f.ino, idx)
				pg.data = buf
			}
		} else {
			c.touch(pg)
		}
		copy(pg.data[pgOff:pgOff+chunk], p[total:total+chunk])
		pg.dirty = true
		f.size = max(f.size, cur+int64(chunk))
		ctx.Advance(c.hitCost(chunk))
		total += chunk
		if err := c.flushExcess(ctx, files); err != nil {
			return total, err
		}
	}
	return total, nil
}

func (f *refFile) append(ctx *sim.Ctx, p []byte) (int, error) {
	c := f.c
	if f.mode == modeNone {
		return f.inner.Append(ctx, p)
	}
	if err := f.flushFile(ctx); err != nil {
		return 0, err
	}
	n, err := f.inner.Append(ctx, p)
	if n > 0 {
		newEnd := f.inner.Size()
		oldSize := newEnd - int64(n)
		c.stats.WriteThroughBytes += int64(n)
		// fillCleanLocked: a page whose live prefix is not cached is skipped.
		for done := 0; done < n; {
			cur := oldSize + int64(done)
			idx, pgOff := cur/PageSize, int(cur%PageSize)
			chunk := min(PageSize-pgOff, n-done)
			pg := c.find(f.ino, idx)
			if pg == nil {
				if pageStart := idx * PageSize; pageStart < oldSize && cur > pageStart {
					done += chunk
					continue
				}
				pg = c.insert(ctx, f.ino, idx)
			} else {
				c.touch(pg)
			}
			copy(pg.data[pgOff:pgOff+chunk], p[done:done+chunk])
			done += chunk
		}
		f.size = max(f.size, newEnd)
	}
	return n, err
}

func (f *refFile) truncate(ctx *sim.Ctx, size int64) error {
	if f.mode == modeNone {
		return f.inner.Truncate(ctx, size)
	}
	if err := f.flushFile(ctx); err != nil {
		return err
	}
	f.c.dropPages(f.ino)
	if err := f.inner.Truncate(ctx, size); err != nil {
		return err
	}
	f.size = f.inner.Size()
	return nil
}

func (f *refFile) fsync(ctx *sim.Ctx) error {
	if err := f.flushFile(ctx); err != nil {
		return err
	}
	return f.inner.Fsync(ctx)
}

func (f *refFile) revoked() {
	c := f.c
	f.mode = modeNone
	batch := f.collectDirty()
	c.stats.Revokes++
	c.flushCtx.Counters.CacheRevokes++
	f.writeBack(c.flushCtx, batch)
	c.dropPages(f.ino)
}

func (f *refFile) close(ctx *sim.Ctx) error {
	batch := f.collectDirty()
	f.mode = modeNone
	f.c.dropPages(f.ino)
	werr := f.writeBack(ctx, batch)
	cerr := f.inner.Close(ctx)
	if werr != nil {
		return werr
	}
	return cerr
}

// dataCall is one entry of a stub FS's call log.
type dataCall struct {
	op  fstest.DataOp
	ino uint64
	off int64
	n   int
}

// modelSide is one of the two stacks the stream is replayed through.
type modelSide struct {
	fs  *fstest.MemFS
	ctx *sim.Ctx
	log []dataCall
}

func newModelSide(t *testing.T, files int, fileBytes int) *modelSide {
	s := &modelSide{fs: fstest.NewMemFS(), ctx: sim.NewCtx(100, 0)}
	setup := sim.NewCtx(1, 0)
	buf := make([]byte, fileBytes)
	for i := 0; i < files; i++ {
		f, err := s.fs.Create(setup, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i*31 + j*7 + j>>12)
		}
		if _, err := f.Append(setup, buf); err != nil {
			t.Fatal(err)
		}
	}
	s.fs.OnData = func(op fstest.DataOp, ino uint64, off int64, n int) error {
		s.log = append(s.log, dataCall{op, ino, off, n})
		return nil
	}
	return s
}

// lruKeys lists the real cache's pages in LRU order, most recent first.
func (c *Cache) lruKeys() []pageKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]pageKey, 0, c.lru.n)
	for pg := c.lru.front; pg != nil; pg = pg.link[lruLink].next {
		keys = append(keys, pageKey{pg.st.ino, pg.idx, pg.dirty})
	}
	return keys
}

// TestModelEquivalence replays one seeded stream of 10⁵ operations — reads,
// writes, appends, fsyncs, lease revocations, close-and-reopen, truncates
// (which drop a file's pages) — through the real cache and through
// refCache, each over its own stub FS, and after every operation requires:
//
//   - the same result and the same bytes read;
//   - the same calls on the stub FS, in the same order — every fetch and,
//     since a flush is a WriteAt, the same sequence of flushed (ino, page)
//     pairs;
//   - the same sequence of evicted (ino, page) pairs — the real cache's are
//     the pages that left its LRU, oldest first — and the same number of
//     evictions;
//   - the same LRU order with the same dirty marks, the same Stats and
//     virtual clock, and a clean CheckInvariant.
//
// The cache is small enough (96 pages, 12 dirty) against the working set
// (384 pages) that eviction and the threshold flush run all the time.
func TestModelEquivalence(t *testing.T) {
	const (
		nFiles    = 6
		filePages = 64
		ops       = 100_000
	)
	cfg := Config{MaxPages: 96, MaxDirty: 12}
	real, ref := newModelSide(t, nFiles, filePages*PageSize), newModelSide(t, nFiles, filePages*PageSize)

	rc := New(real.fs, cfg)
	mc := &refCache{cfg: cfg.withDefaults(), flushCtx: sim.NewCtx(101, 0)}
	realFiles := make([]vfs.File, nFiles)
	refFiles := make([]*refFile, nFiles)
	refByIno := make(map[uint64]*refFile)
	reopen := func(i int) {
		var err error
		if realFiles[i], err = rc.Open(real.ctx, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
		if refFiles[i], err = mc.open(ref.ctx, ref.fs, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
		refByIno[refFiles[i].ino] = refFiles[i]
	}
	for i := range realFiles {
		reopen(i)
	}

	rng := sim.NewRand(20240915)
	const maxIO = 3 * PageSize
	wbuf, rbuf1, rbuf2 := make([]byte, maxIO), make([]byte, maxIO), make([]byte, maxIO)
	logged := 0
	for op := 0; op < ops; op++ {
		i := rng.Intn(nFiles)
		rf, mf := realFiles[i], refFiles[i]
		before := rc.lruKeys()
		mc.evicted = mc.evicted[:0]
		inserts := false // the operation may link pages, so may evict
		var what string
		var n1, n2 int
		var err1, err2 error
		switch k := rng.Intn(1000); {
		case k < 500:
			off, n := rng.Int63n(filePages*PageSize), 1+rng.Intn(maxIO)
			what, inserts = fmt.Sprintf("read f%d [%d,+%d)", i, off, n), true
			n1, err1 = rf.ReadAt(real.ctx, rbuf1[:n], off)
			n2, err2 = mf.readAt(ref.ctx, rbuf2[:n], off)
			if !bytes.Equal(rbuf1[:n1], rbuf2[:n2]) {
				t.Fatalf("op %d %s: bytes differ", op, what)
			}
		case k < 900:
			off, n := rng.Int63n((filePages-3)*PageSize), 1+rng.Intn(maxIO)
			if rng.Intn(2) == 0 { // whole pages: the path that fetches nothing
				off, n = off/PageSize*PageSize, PageSize
			}
			for j := range wbuf[:n] {
				wbuf[j] = byte(op + j*3)
			}
			what, inserts = fmt.Sprintf("write f%d [%d,+%d)", i, off, n), true
			n1, err1 = rf.WriteAt(real.ctx, wbuf[:n], off)
			n2, err2 = mf.writeAt(ref.ctx, wbuf[:n], off, refByIno)
		case k < 920:
			n := 1 + rng.Intn(PageSize+PageSize/2)
			if mf.inner.Size()+int64(n) > filePages*PageSize {
				continue
			}
			for j := range wbuf[:n] {
				wbuf[j] = byte(op*5 + j)
			}
			what, inserts = fmt.Sprintf("append f%d +%d", i, n), true
			n1, err1 = rf.Append(real.ctx, wbuf[:n])
			n2, err2 = mf.append(ref.ctx, wbuf[:n])
		case k < 960:
			what = fmt.Sprintf("fsync f%d", i)
			err1, err2 = rf.Fsync(real.ctx), mf.fsync(ref.ctx)
		case k < 970:
			what = fmt.Sprintf("revoke f%d", i)
			real.fs.Revoke(mf.ino)
			mf.revoked()
		case k < 990:
			what = fmt.Sprintf("close+reopen f%d", i)
			err1, err2 = rf.Close(real.ctx), mf.close(ref.ctx)
			reopen(i)
		default:
			size := rng.Int63n(filePages * PageSize)
			what = fmt.Sprintf("truncate f%d to %d", i, size)
			err1, err2 = rf.Truncate(real.ctx, size), mf.truncate(ref.ctx, size)
		}
		if n1 != n2 || err1 != nil || err2 != nil {
			t.Fatalf("op %d %s: real (%d, %v), model (%d, %v)", op, what, n1, err1, n2, err2)
		}
		if len(real.log) != len(ref.log) || !slices.Equal(real.log[logged:], ref.log[logged:]) {
			t.Fatalf("op %d %s: stub FS calls differ:\nreal  %v\nmodel %v", op, what, real.log[logged:], ref.log[logged:])
		}
		logged = len(real.log)

		after := rc.lruKeys()
		if len(after) != len(mc.lru) {
			t.Fatalf("op %d %s: real cache holds %d pages, model %d", op, what, len(after), len(mc.lru))
		}
		for j, pg := range mc.lru {
			if after[j] != pg.pageKey {
				t.Fatalf("op %d %s: LRU position %d: real %+v, model %+v", op, what, j, after[j], pg.pageKey)
			}
		}
		if inserts {
			// Pages leave the LRU of such an operation only by eviction,
			// and eviction takes them from the back. A page evicted by one
			// chunk of the operation and linked again by a later one is in
			// both snapshots; it is covered by the eviction count in Stats
			// and by the LRU comparison above.
			gone := func(k pageKey) bool {
				return !slices.ContainsFunc(after, func(a pageKey) bool { return a.ino == k.ino && a.idx == k.idx })
			}
			var evicted, modelEvicted []pageKey
			for j := len(before) - 1; j >= 0; j-- {
				if k := before[j]; gone(k) {
					k.dirty = false // dirty before the operation, flushed within it
					evicted = append(evicted, k)
				}
			}
			for _, k := range mc.evicted {
				if gone(k) {
					modelEvicted = append(modelEvicted, k)
				}
			}
			if !slices.Equal(evicted, modelEvicted) {
				t.Fatalf("op %d %s: real evicted %v, model %v", op, what, evicted, modelEvicted)
			}
		}
		if err := rc.CheckInvariant(); err != nil {
			t.Fatalf("op %d %s: %v", op, what, err)
		}
		mc.stats.Pages, mc.stats.DirtyPages = len(mc.lru), mc.dirtyTotal()
		if got := rc.Stats(); got != mc.stats {
			t.Fatalf("op %d %s: stats differ:\nreal  %+v\nmodel %+v", op, what, got, mc.stats)
		}
		if real.ctx.Now() != ref.ctx.Now() || *real.ctx.Counters != *ref.ctx.Counters {
			t.Fatalf("op %d %s: virtual clock or counters differ: %d vs %d", op, what, real.ctx.Now(), ref.ctx.Now())
		}
	}
	if *rc.flushCtx.Counters != *mc.flushCtx.Counters {
		t.Fatalf("revoke-flush counters differ")
	}
	st := rc.Stats()
	if st.Evictions < 10_000 || st.FlushedBytes < 10_000*PageSize/2 || st.Revokes < 500 {
		t.Fatalf("stream exercised too little: %+v", st)
	}
	t.Logf("%d ops: %d hits, %d misses, %d evictions, %d KiB flushed, %d revokes, %d stub FS calls",
		ops, st.Hits, st.Misses, st.Evictions, st.FlushedBytes>>10, st.Revokes, len(real.log))
}

// TestCheckInvariantDetectsDisorder breaks the one property the O(1)
// threshold flush rests on — dirty list in LRU order — and expects the
// checker to say so.
func TestCheckInvariantDetectsDisorder(t *testing.T) {
	s := newModelSide(t, 1, 4*PageSize)
	c := New(s.fs, Config{})
	f, err := c.Open(s.ctx, "/f0")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := int64(0); i < 3; i++ {
		if _, err := f.WriteAt(s.ctx, page, i*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("intact cache: %v", err)
	}
	c.mu.Lock()
	c.dirty.moveToFront(c.dirty.back) // the oldest dirty page now claims to be the newest
	c.mu.Unlock()
	if err := c.CheckInvariant(); err == nil {
		t.Fatal("dirty list out of LRU order went undetected")
	}
}
