package pagecache

import (
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// cachedFile is an open handle on a leased file. Reads are served
// page-granular from the cache; writes upgrade to a write lease and go
// write-back. If the lease is lost (revoke) or was never upgraded, every
// operation passes through to the inner handle unchanged.
type cachedFile struct {
	c     *Cache
	st    *fileState
	inner vfs.File
	lf    Leasable
}

var _ vfs.File = (*cachedFile)(nil)

// Ino implements vfs.File.
func (f *cachedFile) Ino() uint64 { return f.inner.Ino() }

// Size implements vfs.File: the local leased size reflects buffered dirty
// extensions before the server learns about them.
func (f *cachedFile) Size() int64 {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	if f.st.mode != modeNone {
		return f.st.size
	}
	return f.inner.Size()
}

// ReadAt implements vfs.File. Hits cost DRAM time on ctx; a missed page is
// fetched whole from the server (read-around) and inserted clean. Bytes in
// holes — regions inside the local size the server has never seen — read
// as zeros, exactly as they would from the server after a flush.
func (f *cachedFile) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	c := f.c
	c.mu.Lock()
	if err := f.st.takeErrLocked(); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	if f.st.mode == modeNone {
		c.mu.Unlock()
		return f.inner.ReadAt(ctx, p, off)
	}
	size := f.st.size
	c.mu.Unlock()
	if off < 0 || off >= size {
		return 0, nil
	}
	n := len(p)
	if off+int64(n) > size {
		n = int(size - off)
	}

	total := 0
	for total < n {
		cur := off + int64(total)
		idx := cur / PageSize
		pgOff := int(cur % PageSize)
		chunk := PageSize - pgOff
		if chunk > n-total {
			chunk = n - total
		}
		c.mu.Lock()
		if f.st.mode == modeNone {
			// Lease lost mid-read: fall through to the server for the rest.
			c.mu.Unlock()
			m, err := f.inner.ReadAt(ctx, p[total:n], cur)
			return total + m, err
		}
		if pg := f.st.pages[idx]; pg != nil {
			copy(p[total:total+chunk], pg.data[pgOff:pgOff+chunk])
			c.touchLocked(pg)
			c.stats.Hits++
			c.stats.HitBytes += int64(chunk)
			ctx.Counters.CacheHits++
			ctx.Counters.CacheHitBytes += int64(chunk)
			c.mu.Unlock()
			ctx.Advance(c.hitCost(chunk))
			total += chunk
			continue
		}
		fr := c.frameLocked()
		c.mu.Unlock()

		m, err := f.fetch(ctx, fr, idx)
		if err != nil {
			return total, err
		}
		ctx.Counters.CacheMisses++
		ctx.Counters.CacheMissBytes += int64(m)
		// Copy out while the frame is still private: once linked, another
		// goroutine of the session may write the page.
		copy(p[total:total+chunk], fr.data[pgOff:pgOff+chunk])
		c.mu.Lock()
		c.stats.Misses++
		c.stats.MissBytes += int64(m)
		if f.st.mode != modeNone && f.st.pages[idx] == nil {
			c.linkLocked(ctx, f.st, idx, fr)
		} else {
			c.releaseLocked(fr)
		}
		c.mu.Unlock()
		total += chunk
	}
	return total, nil
}

// fetch fills fr, a frame the caller owns, with page idx from the server:
// the page is read straight into the memory it will be cached in. Bytes the
// server did not return are zeroed, as in a hole. On error the frame goes
// back to the free list. Called without mu.
func (f *cachedFile) fetch(ctx *sim.Ctx, fr *page, idx int64) (int, error) {
	m, err := f.inner.ReadAt(ctx, fr.data[:], idx*PageSize)
	if err != nil {
		f.c.mu.Lock()
		f.c.releaseLocked(fr)
		f.c.mu.Unlock()
		return 0, err
	}
	clear(fr.data[m:])
	return m, nil
}

// WriteAt implements vfs.File: write-back under a write lease. The first
// write upgrades the read lease; if the server refuses (bounded revoke
// retries), the write goes through synchronously instead — correctness
// never depends on the grant.
func (f *cachedFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	c := f.c
	c.mu.Lock()
	if err := f.st.takeErrLocked(); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	mode := f.st.mode
	c.mu.Unlock()
	if off < 0 {
		return 0, vfs.ErrClosed
	}
	if mode == modeNone {
		return f.writeThrough(ctx, p, off)
	}
	if mode == modeRead {
		granted, err := f.lf.Lease(ctx, true)
		if err != nil {
			return 0, err
		}
		if !granted {
			return f.writeThrough(ctx, p, off)
		}
		c.mu.Lock()
		if f.st.mode == modeRead {
			f.st.mode = modeWrite
		}
		mode = f.st.mode
		c.mu.Unlock()
		if mode != modeWrite {
			// Revoked between grant and recording: stay pass-through.
			return f.writeThrough(ctx, p, off)
		}
	}

	// Dirty the covered pages at DRAM cost. A partially covered page whose
	// uncovered part holds live data must be read-modify-write filled
	// first.
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		idx := cur / PageSize
		pgOff := int(cur % PageSize)
		chunk := PageSize - pgOff
		if chunk > len(p)-total {
			chunk = len(p) - total
		}
		c.mu.Lock()
		if f.st.mode != modeWrite {
			// Revoked mid-write: push the remainder through synchronously.
			c.mu.Unlock()
			m, err := f.writeThrough(ctx, p[total:], cur)
			return total + m, err
		}
		pg := f.st.pages[idx]
		if pg == nil {
			pageStart := idx * PageSize
			pageEnd := pageStart + PageSize
			validEnd := f.st.size
			if validEnd > pageEnd {
				validEnd = pageEnd
			}
			covers := cur <= pageStart && cur+int64(chunk) >= validEnd
			fr := c.frameLocked()
			if covers {
				// The write supplies every live byte; the rest is hole.
				clear(fr.data[:pgOff])
				clear(fr.data[pgOff+chunk:])
			} else {
				// Fetch the page's live bytes before overlaying.
				c.mu.Unlock()
				if _, err := f.fetch(ctx, fr, idx); err != nil {
					return total, err
				}
				ctx.Counters.CacheMisses++
				c.mu.Lock()
				c.stats.Misses++
				if f.st.mode != modeWrite {
					c.releaseLocked(fr)
					c.mu.Unlock()
					m, err := f.writeThrough(ctx, p[total:], cur)
					return total + m, err
				}
				pg = f.st.pages[idx]
			}
			if pg == nil {
				pg = fr
				c.linkLocked(ctx, f.st, idx, pg)
			} else {
				// Another goroutine of the session cached the page during
				// the fetch. It is about to be dirtied, so it is touched
				// like any page written in place.
				c.releaseLocked(fr)
				c.touchLocked(pg)
			}
		} else {
			c.touchLocked(pg)
		}
		copy(pg.data[pgOff:pgOff+chunk], p[total:total+chunk])
		c.markDirtyLocked(pg)
		if cur+int64(chunk) > f.st.size {
			f.st.size = cur + int64(chunk)
		}
		over := c.dirtyLocked() > c.cfg.MaxDirty
		c.mu.Unlock()
		ctx.Advance(c.hitCost(chunk))
		total += chunk
		if over {
			if err := c.flushExcess(ctx); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// writeThrough sends a write straight to the server and keeps any cached
// copy of the covered pages coherent by overlaying the written bytes.
func (f *cachedFile) writeThrough(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(ctx, p, off)
	if n > 0 {
		c := f.c
		c.mu.Lock()
		c.stats.WriteThroughBytes += int64(n)
		c.overlayLocked(f.st, p[:n], off)
		if f.st.mode != modeNone && off+int64(n) > f.st.size {
			f.st.size = off + int64(n)
		}
		c.mu.Unlock()
	}
	return n, err
}

// overlayLocked copies freshly written bytes over any cached pages they
// intersect, leaving dirtiness unchanged: the server already has the data.
func (c *Cache) overlayLocked(st *fileState, p []byte, off int64) {
	for done := 0; done < len(p); {
		cur := off + int64(done)
		idx := cur / PageSize
		pgOff := int(cur % PageSize)
		chunk := PageSize - pgOff
		if chunk > len(p)-done {
			chunk = len(p) - done
		}
		if pg := st.pages[idx]; pg != nil {
			copy(pg.data[pgOff:pgOff+chunk], p[done:done+chunk])
		}
		done += chunk
	}
}

// Append implements vfs.File. Appends are write-through — the server owns
// end-of-file placement — but the appended bytes fill the cache clean, so
// the populate-then-reread pattern hits from the first read. Any buffered
// dirty extension is flushed first so local and server EOF agree.
func (f *cachedFile) Append(ctx *sim.Ctx, p []byte) (int, error) {
	c := f.c
	c.mu.Lock()
	if err := f.st.takeErrLocked(); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	mode := f.st.mode
	needFlush := f.st.dirty > 0
	c.mu.Unlock()
	if mode == modeNone {
		return f.inner.Append(ctx, p)
	}
	if needFlush {
		if err := c.flushFile(ctx, f.st); err != nil {
			return 0, err
		}
	}
	n, err := f.inner.Append(ctx, p)
	if n > 0 {
		newEnd := f.inner.Size()
		start := newEnd - int64(n)
		c.mu.Lock()
		c.stats.WriteThroughBytes += int64(n)
		if f.st.mode != modeNone {
			c.fillCleanLocked(f.st, p[:n], start, ctx)
			if newEnd > f.st.size {
				f.st.size = newEnd
			}
		}
		c.mu.Unlock()
	}
	return n, err
}

// fillCleanLocked inserts server-confirmed bytes [off, off+len(p)) as
// clean pages. A page with an unknown live prefix (data before off that is
// not cached) is skipped — it would need a fetch to reconstruct, and a
// later read will miss-fill it correctly.
func (c *Cache) fillCleanLocked(st *fileState, p []byte, off int64, ctx *sim.Ctx) {
	oldSize := off
	for done := 0; done < len(p); {
		cur := off + int64(done)
		idx := cur / PageSize
		pgOff := int(cur % PageSize)
		chunk := PageSize - pgOff
		if chunk > len(p)-done {
			chunk = len(p) - done
		}
		pg := st.pages[idx]
		if pg == nil {
			pageStart := idx * PageSize
			if pageStart < oldSize && cur > pageStart {
				// Unknown live prefix; skip this page.
				done += chunk
				continue
			}
			if pageStart >= cur || pageStart >= oldSize {
				pg = c.insertPageLocked(ctx, st, idx)
			} else {
				done += chunk
				continue
			}
		} else {
			c.touchLocked(pg)
		}
		copy(pg.data[pgOff:pgOff+chunk], p[done:done+chunk])
		done += chunk
	}
}

// Truncate implements vfs.File: flush, drop, pass through. Truncation is
// rare enough that invalidating beats tracking partial-page validity.
func (f *cachedFile) Truncate(ctx *sim.Ctx, size int64) error {
	c := f.c
	c.mu.Lock()
	err0 := f.st.takeErrLocked()
	mode := f.st.mode
	c.mu.Unlock()
	if err0 != nil {
		return err0
	}
	if mode == modeNone {
		return f.inner.Truncate(ctx, size)
	}
	if err := c.flushFile(ctx, f.st); err != nil {
		return err
	}
	c.mu.Lock()
	c.dropPagesLocked(f.st)
	c.mu.Unlock()
	if err := f.inner.Truncate(ctx, size); err != nil {
		return err
	}
	c.mu.Lock()
	if f.st.mode != modeNone {
		f.st.size = f.inner.Size()
	}
	c.mu.Unlock()
	return nil
}

// takeErr surfaces the file's sticky write-back error, once.
func (f *cachedFile) takeErr() error {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	return f.st.takeErrLocked()
}

// Fallocate implements vfs.File (pass-through; preallocation is a
// server-side concern). Like every call that changes the file it reports a
// failed write-back first: the size must not move before the writer has
// seen EIO.
func (f *cachedFile) Fallocate(ctx *sim.Ctx, off, n int64) error {
	if err := f.takeErr(); err != nil {
		return err
	}
	if err := f.inner.Fallocate(ctx, off, n); err != nil {
		return err
	}
	c := f.c
	c.mu.Lock()
	if f.st.mode != modeNone && off+n > f.st.size {
		f.st.size = off + n
	}
	c.mu.Unlock()
	return nil
}

// Fsync implements vfs.File: every dirty page reaches the server, then the
// server persists. A prior failed write-back surfaces here.
func (f *cachedFile) Fsync(ctx *sim.Ctx) error {
	if err := f.takeErr(); err != nil {
		return err
	}
	if err := f.c.flushFile(ctx, f.st); err != nil {
		return err
	}
	return f.inner.Fsync(ctx)
}

// Mmap implements vfs.File; AttachMapping steps the cache aside.
func (f *cachedFile) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return vfs.Mmap(ctx, f, length)
}

// Extents implements vfs.File.
func (f *cachedFile) Extents() []mmu.Extent { return f.inner.Extents() }

// SetXattr implements vfs.File; a failed write-back surfaces first.
func (f *cachedFile) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	if err := f.takeErr(); err != nil {
		return err
	}
	return f.inner.SetXattr(ctx, name, value)
}

// GetXattr implements vfs.File.
func (f *cachedFile) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	return f.inner.GetXattr(ctx, name)
}

// Close implements vfs.File. The last handle on an ino flushes whatever is
// still dirty, releases the lease and retires the cached state; a sticky
// write-back error surfaces here rather than vanishing with the handle. A
// closed handle points at the cache's closed state, so closing it again
// returns vfs.ErrClosed and touches nothing.
func (f *cachedFile) Close(ctx *sim.Ctx) error {
	c := f.c
	c.flushMu.Lock()
	c.mu.Lock()
	st := f.st
	if st == &c.closed {
		c.mu.Unlock()
		c.flushMu.Unlock()
		return vfs.ErrClosed
	}
	f.st = &c.closed
	delete(st.handles, f)
	st.refs--
	last := st.refs <= 0
	err0 := st.takeErrLocked()
	var batch []writeback
	hadLease := st.mode != modeNone
	if last {
		batch = c.collectDirtyLocked(st, nil)
		// Flush through this handle: it is the one still open.
		for i := range batch {
			batch[i].wf = f.inner
		}
		st.mode = modeNone
		c.dropPagesLocked(st)
		c.attrDropInoLocked(st.ino)
		delete(c.files, st.ino)
	} else if st.flushFile == f.inner {
		st.flushFile = nil
		for h := range st.handles {
			st.flushFile = h.inner
			break
		}
	}
	c.mu.Unlock()
	werr := c.writeBack(ctx, batch)
	if last {
		c.mu.Lock()
		c.retireLocked(st) // the batch was the last thing to refer to it
		c.mu.Unlock()
	}
	c.flushMu.Unlock()
	if last && hadLease {
		f.lf.Unlease(ctx) // best-effort; teardown reaps leases regardless
	}
	cerr := f.inner.Close(ctx)
	if err0 != nil {
		return err0
	}
	if werr != nil {
		return werr
	}
	return cerr
}
