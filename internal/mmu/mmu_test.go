package mmu

import (
	"bytes"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
)

// testHandler serves faults from a static extent list, modelling a file
// whose blocks are already allocated.
type testHandler struct {
	extents []Extent
	faults  int
}

func (h *testHandler) Fault(ctx *sim.Ctx, pageOff int64) (FaultResult, error) {
	h.faults++
	e, ok := covering(h.extents, pageOff)
	if !ok {
		return FaultResult{}, ErrOutOfRange
	}
	return Resolve(e, pageOff), nil
}

// covering finds the extent of exts that covers file offset off, by a
// linear scan.
func covering(exts []Extent, off int64) (Extent, bool) {
	for _, e := range exts {
		if off >= e.FileOff && off < e.FileOff+e.Len {
			return e, true
		}
	}
	return Extent{}, false
}

func newEnv(size int64) (*pmem.Device, *AddressSpace) {
	d := pmem.New(size)
	return d, NewAddressSpace(d)
}

func TestHugeEligible(t *testing.T) {
	cases := []struct {
		name   string
		extent Extent // the extent covering the chunk's first byte
		chunk  int64
		want   bool
	}{
		{"aligned single extent", Extent{0, 0, HugePage}, 0, true},
		{"unaligned phys", Extent{0, 4096, HugePage}, 0, false},
		{"one byte short", Extent{0, 0, HugePage - 1}, 0, false},
		{"ends mid-chunk", Extent{0, 0, HugePage / 2}, 0, false},
		{"second chunk aligned", Extent{0, 0, 2 * HugePage}, HugePage, true},
		{"large extent covers chunk", Extent{0, 2 * HugePage, 8 * HugePage}, HugePage, true},
		{"extent starts past the chunk", Extent{HugePage, HugePage, HugePage}, 0, false},
		{"hole", Extent{}, 0, false},
	}
	for _, c := range cases {
		_, got := HugeEligible(c.extent, c.chunk)
		if got != c.want {
			t.Errorf("%s: HugeEligible = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		name    string
		extent  Extent // the extent covering the page
		pageOff int64
		want    FaultResult
	}{
		{"page inside an eligible chunk", Extent{0, 4 * HugePage, 2 * HugePage}, HugePage + 5*BasePage, FaultResult{Huge: true, Phys: 5 * HugePage}},
		{"unaligned extent", Extent{0, BasePage, 2 * HugePage}, 3 * BasePage, FaultResult{Phys: 4 * BasePage}},
		{"extent starts mid-chunk", Extent{8 * BasePage, 2 * HugePage, HugePage}, 9 * BasePage, FaultResult{Phys: 2*HugePage + BasePage}},
	}
	for _, c := range cases {
		if got := Resolve(c.extent, c.pageOff); got != c.want {
			t.Errorf("%s: Resolve = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestMappingReadWriteRoundTrip(t *testing.T) {
	d, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{{0, 0, 4 * HugePage}}}
	m := as.NewMapping(4*HugePage, h)
	ctx := sim.NewCtx(1, 0)

	data := []byte("the quick brown fox")
	if err := m.Write(ctx, data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(ctx, got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
	// Data must land on the device at the right physical address.
	devGot := make([]byte, len(data))
	d.ReadAt(devGot, 12345)
	if !bytes.Equal(devGot, data) {
		t.Fatalf("device content: %q", devGot)
	}
}

func TestHugepageMappingFaultsOnce(t *testing.T) {
	_, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{{0, 0, HugePage}}}
	m := as.NewMapping(HugePage, h)
	ctx := sim.NewCtx(1, 0)

	buf := make([]byte, 64)
	for off := int64(0); off < HugePage; off += BasePage {
		if err := m.Read(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Counters.HugeFaults != 1 {
		t.Fatalf("huge faults = %d, want 1", ctx.Counters.HugeFaults)
	}
	if ctx.Counters.PageFaults != 0 {
		t.Fatalf("base faults = %d, want 0", ctx.Counters.PageFaults)
	}
	base, huge := m.MappedPages()
	if base != 0 || huge != 1 {
		t.Fatalf("mapped pages = %d base, %d huge", base, huge)
	}
}

func TestBasePageMappingFaultsPerPage(t *testing.T) {
	_, as := newEnv(64 << 20)
	// Physically unaligned backing: hugepage forbidden.
	h := &testHandler{extents: []Extent{{0, BasePage, HugePage}}}
	m := as.NewMapping(HugePage, h)
	ctx := sim.NewCtx(1, 0)

	buf := make([]byte, 64)
	for off := int64(0); off < HugePage; off += BasePage {
		if err := m.Write(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Counters.PageFaults != PagesPerHuge {
		t.Fatalf("base faults = %d, want %d", ctx.Counters.PageFaults, PagesPerHuge)
	}
	if ctx.Counters.HugeFaults != 0 {
		t.Fatal("unexpected huge fault")
	}
}

func TestBasePagesCost512xFaults(t *testing.T) {
	// The paper's core observation: base pages take 512× the faults and
	// meaningfully more total time for the same 2MiB of writes.
	_, as := newEnv(64 << 20)

	hugeH := &testHandler{extents: []Extent{{0, 0, HugePage}}}
	hugeM := as.NewMapping(HugePage, hugeH)
	hugeCtx := sim.NewCtx(1, 0)
	if err := hugeM.Touch(hugeCtx, 0, HugePage, true); err != nil {
		t.Fatal(err)
	}

	baseH := &testHandler{extents: []Extent{{0, BasePage, HugePage}}}
	baseM := as.NewMapping(HugePage, baseH)
	baseCtx := sim.NewCtx(2, 0)
	if err := baseM.Touch(baseCtx, 0, HugePage, true); err != nil {
		t.Fatal(err)
	}

	if baseCtx.Counters.PageFaults != 512*hugeCtx.Counters.HugeFaults {
		t.Fatalf("fault ratio: base=%d huge=%d",
			baseCtx.Counters.PageFaults, hugeCtx.Counters.HugeFaults)
	}
	slowdown := float64(baseCtx.Now()) / float64(hugeCtx.Now())
	if slowdown < 1.5 || slowdown > 4 {
		t.Fatalf("base-page slowdown %.2fx outside the paper's ~2x regime", slowdown)
	}
	// Fig 2's breakdown: with base pages most time is fault handling.
	if baseCtx.Counters.FaultNS < baseCtx.Counters.CopyNS {
		t.Fatalf("expected fault time to dominate: fault=%d copy=%d",
			baseCtx.Counters.FaultNS, baseCtx.Counters.CopyNS)
	}
}

func TestTLBMissesReducedByHugepages(t *testing.T) {
	_, as := newEnv(256 << 20)
	const size = 64 << 20 // far beyond 4K TLB reach (1536*4K = 6MB)

	hugeH := &testHandler{extents: []Extent{{0, 0, size}}}
	hugeM := as.NewMapping(size, hugeH)
	hctx := sim.NewCtx(1, 0)
	if err := hugeM.Prefault(hctx); err != nil {
		t.Fatal(err)
	}

	baseH := &testHandler{extents: []Extent{{0, BasePage, size}}}
	baseM := as.NewMapping(size, baseH)
	bctx := sim.NewCtx(2, 0)
	if err := baseM.Prefault(bctx); err != nil {
		t.Fatal(err)
	}

	// Random 64B reads over the whole region, pre-faulted (§2.4 setup).
	hctx.Reset()
	bctx.Reset()
	as.FlushTLB()
	as.FlushCache()
	rng := sim.NewRand(99)
	buf := make([]byte, 8)
	for i := 0; i < 20000; i++ {
		off := rng.Int63n(size/8) * 8
		if err := hugeM.Read(hctx, buf, off); err != nil {
			t.Fatal(err)
		}
		if err := baseM.Read(bctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if bctx.Counters.TLBMisses < 2*hctx.Counters.TLBMisses {
		t.Fatalf("TLB misses: base=%d huge=%d — hugepages should win",
			bctx.Counters.TLBMisses, hctx.Counters.TLBMisses)
	}
}

func TestSparseFaultHandlerInvoked(t *testing.T) {
	// Sparse mapping: the handler is only called for touched pages.
	_, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{{0, BasePage, 4 * HugePage}}}
	m := as.NewMapping(4*HugePage, h)
	ctx := sim.NewCtx(1, 0)
	buf := make([]byte, 10)
	if err := m.Read(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(ctx, buf, 3*HugePage); err != nil {
		t.Fatal(err)
	}
	if h.faults != 2 {
		t.Fatalf("handler called %d times, want 2", h.faults)
	}
	if ctx.Counters.PageFaults != 2 {
		t.Fatalf("page faults = %d, want 2", ctx.Counters.PageFaults)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	_, as := newEnv(16 << 20)
	h := &testHandler{extents: []Extent{{0, 0, HugePage}}}
	m := as.NewMapping(HugePage, h)
	ctx := sim.NewCtx(1, 0)
	if err := m.Read(ctx, make([]byte, 10), HugePage-5); err != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := m.Write(ctx, make([]byte, 1), -1); err != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestStreamCrossesExtents(t *testing.T) {
	// A bulk write spanning two discontiguous extents must land at the
	// right physical addresses.
	d, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{
		{0, 8 << 20, HugePage},     // chunk 0 at 8MiB (aligned: huge)
		{HugePage, 4096, HugePage}, // chunk 1 unaligned: base pages
	}}
	m := as.NewMapping(2*HugePage, h)
	ctx := sim.NewCtx(1, 0)
	data := make([]byte, 2*HugePage)
	for i := range data {
		data[i] = byte(i / 1000)
	}
	if err := m.Write(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	d.ReadAt(got, 8<<20)
	if !bytes.Equal(got, data[:100]) {
		t.Fatal("chunk 0 bytes wrong")
	}
	d.ReadAt(got, 4096+100)
	if !bytes.Equal(got, data[HugePage+100:HugePage+200]) {
		t.Fatal("chunk 1 bytes wrong")
	}
	base, huge := m.MappedPages()
	if huge != 1 || base != PagesPerHuge {
		t.Fatalf("pages = %d base %d huge", base, huge)
	}
}

func TestPrefaultEliminatesFaultsInCriticalPath(t *testing.T) {
	_, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{{0, BasePage, 8 * HugePage}}}
	m := as.NewMapping(8*HugePage, h)
	ctx := sim.NewCtx(1, 0)
	if err := m.Prefault(ctx); err != nil {
		t.Fatal(err)
	}
	faults := ctx.Counters.PageFaults
	if faults != 8*PagesPerHuge {
		t.Fatalf("prefault took %d faults", faults)
	}
	// Subsequent accesses: zero faults.
	ctx.Reset()
	buf := make([]byte, 64)
	for off := int64(0); off < 8*HugePage; off += 1 << 20 {
		if err := m.Read(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Counters.PageFaults != 0 {
		t.Fatalf("faults after prefault: %d", ctx.Counters.PageFaults)
	}
}

func TestAssocLRU(t *testing.T) {
	a := newAssoc(8, 2) // 4 sets × 2 ways
	if a.touch(1) {
		t.Fatal("first touch hit")
	}
	if !a.touch(1) {
		t.Fatal("second touch missed")
	}
	if a.size() != 1 {
		t.Fatalf("size = %d", a.size())
	}
	a.flushAll()
	if a.touch(1) {
		t.Fatal("hit after flush")
	}
}

func TestCachePollutionFromPageWalks(t *testing.T) {
	// With a tiny LLC, base-page random reads should show markedly more
	// LLC misses than hugepage reads on a hot working set that would
	// otherwise fit — the Figure 4 mechanism.
	model := pmem.DefaultModel()
	model.LLCBytes = 256 << 10 // 4096 lines
	model.TLBEntries4K = 64
	model.TLBEntries2M = 64
	d := pmem.NewWithConfig(pmem.Config{Size: 256 << 20, Model: &model})
	as := NewAddressSpace(d)

	const region = 32 << 20
	hugeM := as.NewMapping(region, &testHandler{extents: []Extent{{0, 0, region}}})
	baseM := as.NewMapping(region, &testHandler{extents: []Extent{{0, BasePage, region}}})
	hctx := sim.NewCtx(1, 0)
	bctx := sim.NewCtx(2, 0)
	if err := hugeM.Prefault(hctx); err != nil {
		t.Fatal(err)
	}
	if err := baseM.Prefault(bctx); err != nil {
		t.Fatal(err)
	}

	// Hot set: 2048 lines × 64B = 128KiB — half the LLC.
	hot := make([]int64, 2048)
	rng := sim.NewRand(5)
	for i := range hot {
		hot[i] = rng.Int63n(region/64) * 64
	}
	run := func(m *Mapping, ctx *sim.Ctx) {
		ctx.Reset()
		as.FlushTLB()
		as.FlushCache()
		buf := make([]byte, 8)
		for pass := 0; pass < 20; pass++ {
			for _, off := range hot {
				if err := m.Read(ctx, buf, off); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(hugeM, hctx)
	run(baseM, bctx)
	if bctx.Counters.LLCMisses <= hctx.Counters.LLCMisses {
		t.Fatalf("LLC misses: base=%d huge=%d — PTE pollution should hurt base pages",
			bctx.Counters.LLCMisses, hctx.Counters.LLCMisses)
	}
	if bctx.Now() <= hctx.Now() {
		t.Fatalf("latency: base=%d huge=%d", bctx.Now(), hctx.Now())
	}
}
