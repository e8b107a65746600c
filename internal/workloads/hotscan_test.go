package workloads

import (
	"testing"

	"repro/internal/fstest"
	"repro/internal/pagecache"
	"repro/internal/sim"
)

// TestHotScanHotSetSurvives runs HotScan through a page cache over the stub
// FS: every hot-set re-read between the scan slices must be a cache hit
// (under plain LRU replacement none is — each slice is a cache of pages
// read once), and without a cache the workload verifies the same bytes and
// reports no hits.
func TestHotScanHotSetSurvives(t *testing.T) {
	const pages = HotScanCachePages
	ctx := sim.NewCtx(100, 0)
	c := pagecache.New(fstest.NewMemFS(), pagecache.Config{MaxPages: pages})
	res, err := HotScanClient(ctx, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HotReads != hotScanSlices*int64(pages)/2 || res.HotHits != res.HotReads || res.ScanReads != hotScanSlices*int64(pages) {
		t.Fatalf("cached: %+v, want every hot re-read a hit", res)
	}
	if st := c.Stats(); st.Promotions != int64(pages)/2 || st.Demotions != 0 {
		t.Fatalf("cache stats %+v: want the hot set promoted once and never demoted", st)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	bare, err := HotScanClient(sim.NewCtx(101, 0), fstest.NewMemFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare.HotHits != 0 || bare.HotReads != res.HotReads || bare.ReadBytes != res.ReadBytes || bare.Ops != res.Ops {
		t.Fatalf("uncached: %+v, cached: %+v", bare, res)
	}
}
