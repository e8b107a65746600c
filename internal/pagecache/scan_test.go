package pagecache_test

import (
	"fmt"
	"testing"

	"repro/internal/pagecache"
	"repro/internal/sim"
)

// TestScanDoesNotEvictHotSet is the replacement policy's promise: a hot set
// that leaves the inactive list its quarter of the cache (here ¾·MaxPages−1
// pages, each touched twice, so promoted) survives a scan of ten caches'
// worth of pages read once, whatever the ratio of hot reads to scan reads
// and whether or not the scan also writes. Not one hot read misses, and
// the scan evicts exactly its own overflow: every scan page beyond the
// room the hot set leaves.
func TestScanDoesNotEvictHotSet(t *testing.T) {
	const (
		maxPages = 64
		hot      = maxPages*3/4 - 1
		scan     = 10 * maxPages
	)
	for _, tc := range []struct {
		scanPer, hotPer int // scanPer scan accesses, then hotPer hot reads
		writeEvery      int // every n-th scan access is a write; 0 = none
	}{
		{scan, 0, 0}, {1, 1, 0}, {4, 1, 0}, {1, 4, 0}, {maxPages, 1, 0}, {3, hot, 0},
		{scan, 0, 10}, {4, 1, 10}, {1, 4, 3}, {maxPages, 1, 1},
	} {
		t.Run(fmt.Sprintf("scan%d_hot%d_write%d", tc.scanPer, tc.hotPer, tc.writeEvery), func(t *testing.T) {
			c, f, ctx := memCache(t, pagecache.Config{MaxPages: maxPages}, hot+scan)
			buf := make([]byte, pagecache.PageSize)
			access := func(page int, write bool) {
				var err error
				if write {
					_, err = f.WriteAt(ctx, buf, int64(page)*pagecache.PageSize)
				} else {
					_, err = f.ReadAt(ctx, buf, int64(page)*pagecache.PageSize)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 2; round++ {
				for p := 0; p < hot; p++ {
					access(p, false)
				}
			}
			if st := stats(t, c); st.ActivePages != hot || st.Promotions != hot || st.Misses != hot {
				t.Fatalf("after two passes over the hot set: %+v, want %d active pages", st, hot)
			}

			rng := sim.NewRand(uint64(tc.scanPer*131 + tc.hotPer))
			hotReads := 0
			readHot := func() {
				before := c.Stats().Misses
				access(rng.Intn(hot), false)
				hotReads++
				if c.Stats().Misses != before {
					t.Fatalf("hot read %d missed", hotReads)
				}
			}
			for s := 0; s < scan; {
				for i := 0; i < tc.scanPer && s < scan; i, s = i+1, s+1 {
					access(hot+s, tc.writeEvery > 0 && s%tc.writeEvery == 0)
				}
				for i := 0; i < tc.hotPer; i++ {
					readHot()
				}
			}
			for p := 0; p < hot; p++ { // and every hot page is still there at the end
				before := c.Stats().Misses
				access(p, false)
				if c.Stats().Misses != before {
					t.Fatalf("hot page %d was evicted by the scan", p)
				}
			}
			st := stats(t, c)
			if want := int64(scan - (maxPages - hot)); st.Evictions != want {
				t.Fatalf("Evictions = %d, want the scan's overflow %d", st.Evictions, want)
			}
			if st.ActivePages != hot || st.Demotions != 0 || st.Pages != maxPages {
				t.Fatalf("after the scan: %+v, want the %d hot pages active, none ever demoted, a full cache", st, hot)
			}
		})
	}
}

// TestScanResistanceCostsNothingWhenTheSetFits is the complementary bound:
// promotion and demotion never evict a page LRU would have kept when
// nothing has to go. A cyclic re-read of a set exactly the size of the
// cache — the pattern that defeats LRU one page beyond it — misses once per
// page and never again, with reads alone and with every fifth access a
// write.
func TestScanResistanceCostsNothingWhenTheSetFits(t *testing.T) {
	const maxPages = 64
	for _, writeEvery := range []int{0, 5} {
		c, f, ctx := memCache(t, pagecache.Config{MaxPages: maxPages}, maxPages)
		buf := make([]byte, pagecache.PageSize)
		var firstPass pagecache.Stats
		for pass := 0; pass < 5; pass++ {
			for p := 0; p < maxPages; p++ {
				var err error
				if off := int64(p) * pagecache.PageSize; writeEvery > 0 && (pass*maxPages+p)%writeEvery == 0 {
					_, err = f.WriteAt(ctx, buf, off)
				} else {
					_, err = f.ReadAt(ctx, buf, off)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			st := stats(t, c)
			if pass == 0 {
				firstPass = st
			}
			if st.Evictions != 0 || st.Pages != maxPages || st.Misses != firstPass.Misses {
				t.Fatalf("write every %d, pass %d: %+v, want %d pages, no eviction, no miss after the first pass (%d)",
					writeEvery, pass, st, maxPages, firstPass.Misses)
			}
		}
		if writeEvery == 0 && firstPass.Misses != maxPages {
			t.Fatalf("first pass: %d misses, want one per page", firstPass.Misses)
		}
	}
}
