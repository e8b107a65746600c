package pagecache

import "fmt"

// CheckInvariant verifies the structure the O(1) paths rely on and reports
// the first violation:
//
//   - every cached page is on the LRU exactly once, under the (file, index)
//     its file's page map names, and the LRU's links and count agree;
//   - the dirty list holds exactly the dirty pages, in the LRU's relative
//     order — which is what makes its back the page a scan of the LRU from
//     the back would reach first — and its count equals the files' summed
//     dirty counts;
//   - free frames are unlinked and clean, and free plus cached frames stay
//     within MaxPages + MaxDirty (the cache exceeds MaxPages only by dirty
//     pages it may not evict).
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
	seen := make(map[*page]struct{}, c.lru.n)
	nextDirty := c.dirty.front
	var prev *page
	for pg := c.lru.front; pg != nil; prev, pg = pg, pg.link[lruLink].next {
		if _, dup := seen[pg]; dup {
			return fmt.Errorf("pagecache: page %d of ino %d is on the LRU twice", pg.idx, pg.st.ino)
		}
		seen[pg] = struct{}{}
		if pg.link[lruLink].prev != prev {
			return fmt.Errorf("pagecache: LRU back link of page %d is wrong", pg.idx)
		}
		if pg.st == nil || c.files[pg.st.ino] != pg.st || pg.st.pages[pg.idx] != pg {
			return fmt.Errorf("pagecache: LRU page %d is not the page its file maps there", pg.idx)
		}
		if pg.dirty {
			if pg != nextDirty {
				return fmt.Errorf("pagecache: dirty page %d of ino %d is out of LRU order on the dirty list", pg.idx, pg.st.ino)
			}
			nextDirty = pg.link[dirtyLink].next
		}
	}
	if prev != c.lru.back || len(seen) != c.lru.n || mapped != c.lru.n {
		return fmt.Errorf("pagecache: LRU walk found %d pages, count says %d, files map %d", len(seen), c.lru.n, mapped)
	}
	if nextDirty != nil {
		return fmt.Errorf("pagecache: dirty list holds page %d, which is not a dirty LRU page", nextDirty.idx)
	}
	walked := 0
	prev = nil
	for pg := c.dirty.front; pg != nil; prev, pg = pg, pg.link[dirtyLink].next {
		if pg.link[dirtyLink].prev != prev {
			return fmt.Errorf("pagecache: dirty-list back link of page %d is wrong", pg.idx)
		}
		walked++
	}
	if prev != c.dirty.back || walked != c.dirty.n || fileDirty != c.dirty.n {
		return fmt.Errorf("pagecache: dirty walk found %d pages, count says %d, files sum to %d", walked, c.dirty.n, fileDirty)
	}

	free := 0
	for pg := c.free; pg != nil && free <= c.nfree; pg = pg.link[lruLink].next {
		if pg.st != nil || pg.dirty {
			return fmt.Errorf("pagecache: free frame is still linked to a file or dirty")
		}
		if _, live := seen[pg]; live {
			return fmt.Errorf("pagecache: frame is both cached and free")
		}
		free++
	}
	if free != c.nfree {
		return fmt.Errorf("pagecache: free walk found %d frames, count says %d", free, c.nfree)
	}
	if bound := c.cfg.MaxPages + c.cfg.MaxDirty; free+c.lru.n > bound {
		return fmt.Errorf("pagecache: %d free + %d cached frames exceed MaxPages+MaxDirty = %d", free, c.lru.n, bound)
	}
	return nil
}
