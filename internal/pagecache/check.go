package pagecache

import "fmt"

// CheckInvariant verifies the structure the O(1) paths rely on and reports
// the first violation:
//
//   - every cached page is on exactly one of the two queues, the one its
//     active flag names, under the (file, index) its file's page map names,
//     and each queue's links and count agree;
//   - each queue's dirty list holds exactly that queue's dirty pages, in the
//     queue's relative order — which is what makes its back the page a scan
//     of the queue from the back would reach first — and the two counts sum
//     to the files' summed dirty counts;
//   - free frames are unlinked, clean and inactive, and free plus cached
//     frames stay within MaxPages + MaxDirty (the cache exceeds MaxPages
//     only by dirty pages it may not evict).
//
// It takes mu, so it may be called at any time, from any goroutine. Test
// hook; returns nil when the cache is consistent.
func (c *Cache) CheckInvariant() error {
	c.mu.Lock()
	defer c.mu.Unlock()

	mapped, fileDirty := 0, 0
	for _, st := range c.files {
		mapped += len(st.pages)
		fileDirty += st.dirty
	}
	seen := make(map[*page]struct{}, mapped)
	if err := c.checkQueueLocked("inactive", &c.inactive, false, seen); err != nil {
		return err
	}
	if err := c.checkQueueLocked("active", &c.active, true, seen); err != nil {
		return err
	}
	if cached := c.pagesLocked(); len(seen) != cached || mapped != cached {
		return fmt.Errorf("pagecache: the queues hold %d pages, their counts say %d, files map %d", len(seen), cached, mapped)
	}
	if fileDirty != c.dirtyLocked() {
		return fmt.Errorf("pagecache: the dirty lists hold %d pages, files sum to %d", c.dirtyLocked(), fileDirty)
	}

	free := 0
	for pg := c.free; pg != nil && free <= c.nfree; pg = pg.link[lruLink].next {
		if pg.st != nil || pg.dirty || pg.active {
			return fmt.Errorf("pagecache: free frame is still linked to a file, dirty or active")
		}
		if _, live := seen[pg]; live {
			return fmt.Errorf("pagecache: frame is both cached and free")
		}
		free++
	}
	if free != c.nfree {
		return fmt.Errorf("pagecache: free walk found %d frames, count says %d", free, c.nfree)
	}
	if bound := c.cfg.MaxPages + c.cfg.MaxDirty; free+len(seen) > bound {
		return fmt.Errorf("pagecache: %d free + %d cached frames exceed MaxPages+MaxDirty = %d", free, len(seen), bound)
	}
	return nil
}

// checkQueueLocked walks one queue's two lists, adding its pages to seen.
func (c *Cache) checkQueueLocked(name string, q *queue, active bool, seen map[*page]struct{}) error {
	walked := 0
	nextDirty := q.dirty.front
	var prev *page
	for pg := q.pages.front; pg != nil; prev, pg = pg, pg.link[lruLink].next {
		if _, dup := seen[pg]; dup {
			return fmt.Errorf("pagecache: page %d is on a queue twice (met again on %s)", pg.idx, name)
		}
		seen[pg] = struct{}{}
		walked++
		if pg.link[lruLink].prev != prev {
			return fmt.Errorf("pagecache: %s back link of page %d is wrong", name, pg.idx)
		}
		if pg.st == nil || c.files[pg.st.ino] != pg.st || pg.st.pages[pg.idx] != pg {
			return fmt.Errorf("pagecache: %s page %d is not the page its file maps there", name, pg.idx)
		}
		if pg.active != active {
			return fmt.Errorf("pagecache: page %d of ino %d is on the %s queue but flagged active=%v", pg.idx, pg.st.ino, name, pg.active)
		}
		if pg.dirty {
			if pg != nextDirty {
				return fmt.Errorf("pagecache: dirty page %d of ino %d is out of order on the %s dirty list, or on the other one", pg.idx, pg.st.ino, name)
			}
			nextDirty = pg.link[dirtyLink].next
		}
	}
	if prev != q.pages.back || walked != q.pages.n {
		return fmt.Errorf("pagecache: %s walk found %d pages, count says %d", name, walked, q.pages.n)
	}
	if nextDirty != nil {
		return fmt.Errorf("pagecache: %s dirty list holds page %d, which is not a dirty page of that queue", name, nextDirty.idx)
	}
	walked = 0
	prev = nil
	for pg := q.dirty.front; pg != nil && walked <= q.dirty.n; prev, pg = pg, pg.link[dirtyLink].next {
		if pg.link[dirtyLink].prev != prev {
			return fmt.Errorf("pagecache: %s dirty-list back link of page %d is wrong", name, pg.idx)
		}
		walked++
	}
	if prev != q.dirty.back || walked != q.dirty.n {
		return fmt.Errorf("pagecache: %s dirty walk found %d pages, count says %d", name, walked, q.dirty.n)
	}
	return nil
}
