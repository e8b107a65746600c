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

// refCache is the replacement policy written the obvious way: two slices,
// inactive and active, each most recent first, and linear scans — to find a
// page, for the eviction victim, for the oldest dirty page. It is
// single-threaded, has one handle per file and no attribute cache;
// everything that decides which page is fetched, promoted, demoted, flushed
// or evicted is kept. TestModelEquivalence replays one operation stream
// through it and through the real cache and requires that they never
// differ.
type refCache struct {
	cfg              Config
	flushCtx         *sim.Ctx
	inactive, active []*refPage
	stats            Stats
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

// all lists every cached page, inactive first; the order within a list is
// what the scans below rely on, the order of the lists never matters.
func (c *refCache) all() []*refPage { return slices.Concat(c.inactive, c.active) }

func (c *refCache) find(ino uint64, idx int64) *refPage {
	for _, pg := range c.all() {
		if pg.ino == ino && pg.idx == idx {
			return pg
		}
	}
	return nil
}

// touch is the second-touch rule: an inactive page moves to the active
// front, an active one to the front of its own list.
func (c *refCache) touch(pg *refPage) {
	if i := slices.Index(c.active, pg); i >= 0 {
		c.active = slices.Delete(c.active, i, i+1)
	} else {
		i := slices.Index(c.inactive, pg)
		c.inactive = slices.Delete(c.inactive, i, i+1)
		c.stats.Promotions++
	}
	c.active = slices.Insert(c.active, 0, pg)
}

func (c *refCache) insert(ctx *sim.Ctx, ino uint64, idx int64) *refPage {
	for len(c.inactive)+len(c.active) >= c.cfg.MaxPages {
		if !c.evictOne(ctx) {
			break
		}
	}
	pg := &refPage{pageKey: pageKey{ino: ino, idx: idx}}
	c.inactive = slices.Insert(c.inactive, 0, pg)
	return pg
}

// oldest returns the position nearest the tail of the first list that
// holds a page of the wanted dirtiness, inactive before active.
func (c *refCache) oldest(dirty bool) (*[]*refPage, int) {
	for _, list := range []*[]*refPage{&c.inactive, &c.active} {
		for i := len(*list) - 1; i >= 0; i-- {
			if (*list)[i].dirty == dirty {
				return list, i
			}
		}
	}
	return nil, -1
}

func (c *refCache) evictOne(ctx *sim.Ctx) bool {
	if n := len(c.active); n > 0 && len(c.inactive) < c.cfg.MaxPages/4 {
		c.inactive = slices.Insert(c.inactive, 0, c.active[n-1])
		c.active = c.active[:n-1]
		c.stats.Demotions++
	}
	list, i := c.oldest(false)
	if list == nil {
		return false
	}
	*list = slices.Delete(*list, i, i+1)
	c.stats.Evictions++
	ctx.Counters.CacheEvictions++
	return true
}

func (c *refCache) dirtyTotal() int {
	n := 0
	for _, pg := range c.all() {
		if pg.dirty {
			n++
		}
	}
	return n
}

func (c *refCache) dropPages(ino uint64) {
	gone := func(pg *refPage) bool { return pg.ino == ino }
	c.inactive = slices.DeleteFunc(c.inactive, gone)
	c.active = slices.DeleteFunc(c.active, gone)
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
	for _, pg := range f.c.all() {
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

// flushExcess is the scan the dirty lists replace: from the inactive tail,
// through however many clean pages, to the oldest dirty one, and on to the
// active list only when no inactive page is dirty.
func (c *refCache) flushExcess(ctx *sim.Ctx, files map[uint64]*refFile) error {
	for c.dirtyTotal() > c.cfg.MaxDirty {
		list, i := c.oldest(true)
		victim := (*list)[i]
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

// keys lists one of the real cache's queues, most recent first.
func (c *Cache) keys(q *queue) []pageKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]pageKey, 0, q.pages.n)
	for pg := q.pages.front; pg != nil; pg = pg.link[lruLink].next {
		keys = append(keys, pageKey{pg.st.ino, pg.idx, pg.dirty})
	}
	return keys
}

func refKeys(list []*refPage) []pageKey {
	keys := make([]pageKey, len(list))
	for i, pg := range list {
		keys[i] = pg.pageKey
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
//   - the same pages in the same order, with the same dirty marks, on the
//     inactive and on the active list — so the same promotions, demotions
//     and eviction victims;
//   - the same Stats, the same virtual clock and counters, and a clean
//     CheckInvariant.
//
// The cache is small enough (96 pages, 12 dirty) against the working set
// (384 pages) that eviction and the threshold flush run all the time, and
// half the accesses go to a hot set the size of the cache, so that pages
// are promoted, demoted and promoted again.
func TestModelEquivalence(t *testing.T) {
	const (
		nFiles    = 6
		filePages = 64
		hotPages  = 16 // at the head of every file: 96 in all, the cache's size
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
		var what string
		var n1, n2 int
		var err1, err2 error
		switch k := rng.Intn(1000); {
		case k < 500:
			off, n := rng.Int63n(filePages*PageSize), 1+rng.Intn(maxIO)
			if rng.Intn(2) == 0 {
				off %= hotPages * PageSize
			}
			what = fmt.Sprintf("read f%d [%d,+%d)", i, off, n)
			n1, err1 = rf.ReadAt(real.ctx, rbuf1[:n], off)
			n2, err2 = mf.readAt(ref.ctx, rbuf2[:n], off)
			if !bytes.Equal(rbuf1[:n1], rbuf2[:n2]) {
				t.Fatalf("op %d %s: bytes differ", op, what)
			}
		case k < 930:
			off, n := rng.Int63n((filePages-3)*PageSize), 1+rng.Intn(maxIO)
			if rng.Intn(2) == 0 { // whole pages: the path that fetches nothing
				off, n = off/PageSize*PageSize, PageSize
			}
			for j := range wbuf[:n] {
				wbuf[j] = byte(op + j*3)
			}
			if rng.Intn(2) == 0 {
				off %= hotPages * PageSize
			}
			what = fmt.Sprintf("write f%d [%d,+%d)", i, off, n)
			n1, err1 = rf.WriteAt(real.ctx, wbuf[:n], off)
			n2, err2 = mf.writeAt(ref.ctx, wbuf[:n], off, refByIno)
		case k < 950:
			n := 1 + rng.Intn(PageSize+PageSize/2)
			if mf.inner.Size()+int64(n) > filePages*PageSize {
				continue
			}
			for j := range wbuf[:n] {
				wbuf[j] = byte(op*5 + j)
			}
			what = fmt.Sprintf("append f%d +%d", i, n)
			n1, err1 = rf.Append(real.ctx, wbuf[:n])
			n2, err2 = mf.append(ref.ctx, wbuf[:n])
		case k < 988:
			what = fmt.Sprintf("fsync f%d", i)
			err1, err2 = rf.Fsync(real.ctx), mf.fsync(ref.ctx)
		case k < 993:
			what = fmt.Sprintf("revoke f%d", i)
			real.fs.Revoke(mf.ino)
			mf.revoked()
		case k < 998:
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

		for _, l := range []struct {
			name        string
			real, model []pageKey
		}{
			{"inactive", rc.keys(&rc.inactive), refKeys(mc.inactive)},
			{"active", rc.keys(&rc.active), refKeys(mc.active)},
		} {
			if !slices.Equal(l.real, l.model) {
				t.Fatalf("op %d %s: %s list differs:\nreal  %+v\nmodel %+v", op, what, l.name, l.real, l.model)
			}
		}
		if err := rc.CheckInvariant(); err != nil {
			t.Fatalf("op %d %s: %v", op, what, err)
		}
		mc.stats.Pages, mc.stats.ActivePages, mc.stats.DirtyPages = len(mc.inactive)+len(mc.active), len(mc.active), mc.dirtyTotal()
		if got := rc.Stats(); got != mc.stats {
			t.Fatalf("op %d %s: stats differ:\nreal  %+v\nmodel %+v", op, what, got, mc.stats)
		}
		if real.ctx.Now() != ref.ctx.Now() || *real.ctx.Counters != *ref.ctx.Counters {
			t.Fatalf("op %d %s: virtual clock or counters differ: %d vs %d", op, what, real.ctx.Now(), ref.ctx.Now())
		}
		if rc.flushCtx.Now() != mc.flushCtx.Now() || *rc.flushCtx.Counters != *mc.flushCtx.Counters {
			t.Fatalf("op %d %s: revoke-flush clock or counters differ: %d vs %d", op, what, rc.flushCtx.Now(), mc.flushCtx.Now())
		}
	}
	st := rc.Stats()
	if st.Evictions < 10_000 || st.FlushedBytes < 10_000*PageSize/2 || st.Revokes < 300 || st.Promotions < 10_000 || st.Demotions < 1_000 {
		t.Fatalf("stream exercised too little: %+v", st)
	}
	t.Logf("%d ops: %d hits, %d misses, %d promotions, %d demotions, %d evictions, %d KiB flushed, %d revokes, %d stub FS calls",
		ops, st.Hits, st.Misses, st.Promotions, st.Demotions, st.Evictions, st.FlushedBytes>>10, st.Revokes, len(real.log))
}

// TestCheckInvariantDetectsDisorder breaks, one at a time, the properties
// the O(1) victim choices rest on and expects the checker to name each: a
// dirty list out of its queue's order, a page filed on the queue its flag
// does not name, and a dirty page on the other queue's dirty list.
func TestCheckInvariantDetectsDisorder(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(c *Cache)
	}{
		{"dirty list out of order", func(c *Cache) {
			c.inactive.dirty.moveToFront(c.inactive.dirty.back) // the oldest dirty page now claims to be the newest
		}},
		{"misfiled page", func(c *Cache) {
			pg := c.inactive.pages.back
			c.markCleanLocked(pg)
			c.inactive.pages.remove(pg) // on the active queue, still flagged inactive
			c.active.pages.pushFront(pg)
		}},
		{"dirty page on the other queue's dirty list", func(c *Cache) {
			pg := c.active.dirty.back
			c.active.dirty.remove(pg)
			c.inactive.dirty.pushFront(pg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newModelSide(t, 1, 4*PageSize)
			c := New(s.fs, Config{})
			f, err := c.Open(s.ctx, "/f0")
			if err != nil {
				t.Fatal(err)
			}
			// Pages 0-2 dirty on the inactive queue, page 3 dirty on the
			// active one.
			page := make([]byte, PageSize)
			for _, i := range []int64{0, 1, 2, 3, 3} {
				if _, err := f.WriteAt(s.ctx, page, i*PageSize); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.CheckInvariant(); err != nil {
				t.Fatalf("intact cache: %v", err)
			}
			if st := c.Stats(); st.ActivePages != 1 || st.DirtyPages != 4 {
				t.Fatalf("set-up: %+v, want 1 active page and 4 dirty", st)
			}
			c.mu.Lock()
			tc.harm(c)
			c.mu.Unlock()
			err = c.CheckInvariant()
			if err == nil {
				t.Fatal("went undetected")
			}
			t.Log(err)
		})
	}
}
