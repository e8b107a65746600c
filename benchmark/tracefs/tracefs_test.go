package tracefs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fileserver"
	"repro/internal/mmu"
	"repro/internal/pagecache"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

func newFS(t *testing.T) (*sim.Ctx, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(64<<20), winefs.Options{CPUs: 2, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fs
}

// plainFile has none of the optional interfaces. leasableFile adds the
// one fileserver's remote files have; punchFile has a combination no
// file type of the stack has.
type plainFile struct{ vfs.File }

type leasableFile struct {
	plainFile
	leased int
}

func (f *leasableFile) Lease(*sim.Ctx, bool) (bool, error) { f.leased++; return true, nil }
func (f *leasableFile) Unlease(*sim.Ctx) error             { f.leased--; return nil }

type punchFile struct{ plainFile }

func (punchFile) PunchHole(*sim.Ctx, int64, int64) error { return nil }

type plainFS struct{ vfs.FS }

type revokeFS struct {
	plainFS
	handler func(uint64)
}

func (f *revokeFS) SetRevokeHandler(h func(uint64)) { f.handler = h }

// trackerFS is a MapTracker that is no MapNotifier: no file system of
// the stack is.
type trackerFS struct{ plainFS }

func (trackerFS) MappedCount(uint64) int { return 0 }

func has[T any](v any) bool { _, ok := v.(T); return ok }

// A decorated value answers a type assertion exactly as the value it
// wraps would: the cache and the server choose their behaviour by those
// assertions, so a decorator that answered differently would change
// the stack it is meant to observe.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	ctx, fs := newFS(t)
	real, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(64)

	cached, err := pagecache.New(fs, pagecache.Config{}).Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name  string
		inner vfs.File
	}{
		{"winefs file", real},
		{"plain", plainFile{real}},
		{"leasable only, as fileserver's remote file", &leasableFile{plainFile: plainFile{real}}},
		{"pagecache file", cached},
	}
	for _, c := range files {
		w := WrapFile(tr, c.inner, Winefs)
		if w == c.inner {
			t.Fatalf("%s: not wrapped", c.name)
		}
		check := func(iface string, inner, wrapped bool) {
			if inner != wrapped {
				t.Errorf("%s: inner implements %s = %v, decorated = %v", c.name, iface, inner, wrapped)
			}
		}
		check("pagecache.Leasable", has[pagecache.Leasable](c.inner), has[pagecache.Leasable](w))
		check("vfs.Mapper", has[vfs.Mapper](c.inner), has[vfs.Mapper](w))
		check("vfs.HugeProber", has[vfs.HugeProber](c.inner), has[vfs.HugeProber](w))
		check("vfs.HolePuncher", has[vfs.HolePuncher](c.inner), has[vfs.HolePuncher](w))
	}
	if !has[vfs.Mapper](real) || !has[vfs.HugeProber](real) || !has[vfs.HolePuncher](real) || !has[vfs.Mapper](cached) {
		t.Fatal("winefs files no longer implement Mapper, HugeProber and HolePuncher, or pagecache files Mapper: the table above proves nothing")
	}

	conn := fileserver.NewPipeListener()
	defer conn.Close()
	fss := []struct {
		name  string
		inner vfs.FS
	}{
		{"winefs", fs},
		{"plain", plainFS{fs}},
		{"revoke source only", &revokeFS{plainFS: plainFS{fs}}},
		{"page cache", pagecache.New(plainFS{fs}, pagecache.Config{})},
	}
	for _, c := range fss {
		w := WrapFS(tr, c.inner, Winefs)
		check := func(iface string, inner, wrapped bool) {
			if inner != wrapped {
				t.Errorf("%s: inner implements %s = %v, decorated = %v", c.name, iface, inner, wrapped)
			}
		}
		check("pagecache.RevokeSource", has[pagecache.RevokeSource](c.inner), has[pagecache.RevokeSource](w))
		check("vfs.MapTracker", has[vfs.MapTracker](c.inner), has[vfs.MapTracker](w))
		check("vfs.MapNotifier", has[vfs.MapNotifier](c.inner), has[vfs.MapNotifier](w))
	}
	if !has[vfs.MapTracker](fs) || !has[vfs.MapNotifier](fs) {
		t.Fatal("winefs.FS no longer implements MapTracker and MapNotifier")
	}
	if !has[pagecache.RevokeSource](&fileserver.Client{}) || !has[pagecache.RevokeSource](WrapFS(tr, &fileserver.Client{}, Fileserver)) {
		t.Error("a decorated fileserver.Client must stay a pagecache.RevokeSource")
	}
}

// The optional calls reach the inner value, and the ones that carry a
// ctx leave a span.
func TestDecoratorForwardsOptionalCalls(t *testing.T) {
	ctx, fs := newFS(t)
	real, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(64)

	lf := &leasableFile{plainFile: plainFile{real}}
	w := WrapFile(tr, lf, Fileserver).(pagecache.Leasable)
	if ok, err := w.Lease(ctx, true); !ok || err != nil || lf.leased != 1 {
		t.Errorf("Lease did not reach the inner file: ok=%v err=%v leased=%d", ok, err, lf.leased)
	}
	if err := w.Unlease(ctx); err != nil || lf.leased != 0 {
		t.Errorf("Unlease did not reach the inner file: err=%v leased=%d", err, lf.leased)
	}

	block := bytes.Repeat([]byte{0xa5}, 4096)
	if _, err := real.Append(ctx, block); err != nil {
		t.Fatal(err)
	}
	if err := WrapFile(tr, real, Winefs).(vfs.HolePuncher).PunchHole(ctx, 0, 4096); err != nil {
		t.Fatalf("PunchHole through the decorator: %v", err)
	}
	if _, err := real.ReadAt(ctx, block, 0); err != nil || !bytes.Equal(block, make([]byte, 4096)) {
		t.Errorf("PunchHole did not reach the inner file: the punched block does not read back as zeros (err=%v)", err)
	}

	rf := &revokeFS{plainFS: plainFS{fs}}
	WrapFS(tr, rf, Fileserver).(pagecache.RevokeSource).SetRevokeHandler(func(uint64) {})
	if rf.handler == nil {
		t.Error("SetRevokeHandler did not reach the inner FS")
	}

	var hooked uint64
	wfs := WrapFS(tr, fs, Winefs)
	wfs.(vfs.MapNotifier).SetMapHook(func(ino uint64) { hooked = ino })
	wf, err := wfs.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := wf.Fallocate(ctx, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	// vmm maps through the decorated file: the file system must see the
	// mapping (hook fires, MappedCount counts it), faults must come back
	// as winefs spans under the vmm access, and the probe must answer.
	m, err := vmm.Map(ctx, wf, 4<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatalf("mapping a decorated winefs file: %v", err)
	}
	if hooked != wf.Ino() {
		t.Errorf("map hook saw ino %d, want %d", hooked, wf.Ino())
	}
	if n := wfs.(vfs.MapTracker).MappedCount(wf.Ino()); n != 1 {
		t.Errorf("MappedCount through the decorator = %d, want 1", n)
	}
	tm := WrapMapping(tr, m)
	var line [64]byte
	if err := tm.Read(ctx, line[:], 0); err != nil {
		t.Fatal(err)
	}
	if !wf.(vfs.HugeProber).ProbeHuge(0, nil) {
		t.Error("ProbeHuge through the decorator: a fallocated chunk on a fresh image should be huge-eligible")
	}
	if err := tm.Close(ctx); err != nil {
		t.Fatal(err)
	}

	var sawLease, sawPunch, faultUnderRead bool
	spans := tr.Spans()
	for _, sp := range spans {
		sawLease = sawLease || sp.Op == OpLease
		sawPunch = sawPunch || sp.Op == OpPunchHole
		if sp.Op == OpFault && sp.Parent > 0 && spans[sp.Parent-1].Op == OpMapRead && spans[sp.Parent-1].Layer == VMM {
			faultUnderRead = true
		}
	}
	if !sawLease || !sawPunch || !faultUnderRead {
		t.Errorf("spans missing: lease=%v punch=%v fault-under-mapped-read=%v", sawLease, sawPunch, faultUnderRead)
	}
}

// A combination of optional interfaces that no type of the stack has
// gets no silent approximation: the decorator refuses it by name.
func TestUnknownCombinationPanics(t *testing.T) {
	ctx, fs := newFS(t)
	real, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(8)
	for name, wrap := range map[string]func(){
		"punchFile": func() { WrapFile(tr, punchFile{plainFile{real}}, Winefs) },
		"trackerFS": func() { WrapFS(tr, trackerFS{plainFS{fs}}, Winefs) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, name) {
					t.Errorf("wrapping a %s: want a panic that names the type, got %q", name, msg)
				}
			}()
			wrap()
		}()
	}
}

func TestNilTracerWrapsNothing(t *testing.T) {
	ctx, fs := newFS(t)
	if WrapFS(nil, fs, Winefs) != vfs.FS(fs) {
		t.Error("WrapFS(nil) must return its argument")
	}
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if WrapFile(nil, f, Winefs) != f {
		t.Error("WrapFile(nil) must return its argument")
	}
	var tr *Tracer
	tr.End(tr.Start(ctx, Maint, OpDefragPass), nil) // must not panic
}

// opStream drives a deterministic mix of every kind of call — path
// operations, data, a mapping with faults, a maintenance call — against
// top and returns where the clock and the counters ended.
func opStream(t *testing.T, ctx *sim.Ctx, top vfs.FS, tr *Tracer) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRand(42)
	buf := make([]byte, 16<<10)
	must(top.Mkdir(ctx, "/d"))
	var files []vfs.File
	for i := 0; i < 40; i++ {
		f, err := top.Create(ctx, fmt.Sprintf("/d/f%02d", i))
		must(err)
		for k := 0; k < 1+rng.Intn(4); k++ {
			_, err = f.Append(ctx, buf[:4096+rng.Intn(3)*4096])
			must(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 400; i++ {
		f := files[rng.Intn(len(files))]
		switch rng.Intn(6) {
		case 0:
			_, err := f.WriteAt(ctx, buf[:4096], 0)
			must(err)
		case 1:
			must(f.Fsync(ctx))
		case 2:
			_, err := top.Stat(ctx, fmt.Sprintf("/d/f%02d", rng.Intn(len(files))))
			must(err)
		default:
			_, err := f.ReadAt(ctx, buf[:4096], 0)
			must(err)
		}
	}
	must(top.Rename(ctx, "/d/f00", "/d/g00"))
	big, err := top.Create(ctx, "/big")
	must(err)
	must(big.Fallocate(ctx, 0, 8<<20))
	m, err := vmm.Map(ctx, big, 8<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	must(err)
	tm := WrapMapping(tr, m)
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(8<<20/64)) * 64
		if i%5 == 0 {
			must(tm.Write(ctx, buf[:64], off))
		} else {
			must(tm.Read(ctx, buf[:64], off))
		}
	}
	must(tm.Msync(ctx, 0, -1))
	must(tm.Close(ctx))
	h := tr.Start(ctx, Maint, OpRewriter)
	tr.End(h, nil)
	for _, f := range files {
		must(f.Close(ctx))
	}
	must(top.Unlink(ctx, "/d/g00"))
}

// Tracing must not move the simulation: the same op stream through a
// decorated and an undecorated stack ends at the same virtual instant
// with the same counters.
func TestTracingLeavesTheSimulationAlone(t *testing.T) {
	plainCtx, plainFS := newFS(t)
	opStream(t, plainCtx, plainFS, nil)

	tracedCtx, tracedFS := newFS(t)
	tr := New(1 << 14)
	opStream(t, tracedCtx, WrapFS(tr, tracedFS, Winefs), tr)

	if plainCtx.Now() != tracedCtx.Now() {
		t.Errorf("virtual clock: plain ended at %d, traced at %d", plainCtx.Now(), tracedCtx.Now())
	}
	if *plainCtx.Counters != *tracedCtx.Counters {
		t.Errorf("counters differ:\nplain  %+v\ntraced %+v", *plainCtx.Counters, *tracedCtx.Counters)
	}
	if len(tr.Spans()) == 0 || tr.Dropped() != 0 {
		t.Fatalf("traced run recorded %d spans, dropped %d", len(tr.Spans()), tr.Dropped())
	}
}

// Every child lies inside its parent on both clocks, and no span's
// self time is negative.
func TestSpansNest(t *testing.T) {
	ctx, fs := newFS(t)
	tr := New(1 << 14)
	opStream(t, ctx, WrapFS(tr, fs, Winefs), tr)
	checkNesting(t, tr.Spans(), true)
	sum := tr.Analyze()
	if sum.Layers[VMM].Calls != 302 { // 300 accesses, msync, close
		t.Errorf("vmm calls = %d, want 302", sum.Layers[VMM].Calls)
	}
	if sum.Layers[Winefs].Buckets.JournalNS == 0 || sum.Layers[Winefs].Buckets.SyscallNS == 0 {
		t.Errorf("winefs entry buckets are empty: %+v", sum.Layers[Winefs].Buckets)
	}
	if sum.Layers[VMM].Buckets.FaultNS == 0 {
		t.Errorf("vmm entry buckets saw no fault time: %+v", sum.Layers[VMM].Buckets)
	}
}

func checkNesting(t *testing.T, spans []Span, sameClock bool) {
	t.Helper()
	childV := make([]int64, len(spans))
	childH := make([]int64, len(spans))
	for i, sp := range spans {
		if sp.H1 < sp.H0 || sp.V1 < sp.V0 {
			t.Fatalf("span %d runs backwards: %+v", i+1, sp)
		}
		if sp.Parent == 0 {
			continue
		}
		p := spans[sp.Parent-1]
		if sp.H0 < p.H0 || sp.H1 > p.H1 {
			t.Errorf("span %d [%d,%d] is outside its parent %d [%d,%d] on the host clock", i+1, sp.H0, sp.H1, sp.Parent, p.H0, p.H1)
		}
		// A child recorded on another simulated thread has its own
		// virtual clock: only its duration is comparable.
		if sameClock && sp.Lane == p.Lane && (sp.V0 < p.V0 || sp.V1 > p.V1) {
			t.Errorf("span %d [%d,%d] is outside its parent %d [%d,%d] on the virtual clock", i+1, sp.V0, sp.V1, sp.Parent, p.V0, p.V1)
		}
		childV[sp.Parent-1] += sp.V1 - sp.V0
		childH[sp.Parent-1] += sp.H1 - sp.H0
	}
	for i, sp := range spans {
		if self := sp.V1 - sp.V0 - childV[i]; self < 0 {
			t.Errorf("span %d has negative virtual self time %d", i+1, self)
		}
		if self := sp.H1 - sp.H0 - childH[i]; self < 0 {
			t.Errorf("span %d has negative host self time %d", i+1, self)
		}
	}
}

// Through a served stack the winefs calls a session makes are recorded
// on the session's own simulated thread; Analyze re-parents them under
// the client-side RPC span that contains them on the host clock.
func TestServedStackLinksAcrossTheRPC(t *testing.T) {
	ctx, fs := newFS(t)
	tr := New(1 << 12)
	srv := fileserver.New(WrapFS(tr, fs, Winefs), fileserver.Config{CPUs: 2, BaseNS: ctx.Now()})
	pl := fileserver.NewPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(pl) }()
	conn, err := pl.Dial()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := fileserver.Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	top := WrapFS(tr, pagecache.New(WrapFS(tr, rc, Fileserver), pagecache.Config{}), Pagecache)

	cctx := sim.NewCtx(7, 1)
	cctx.AdvanceTo(ctx.Now())
	f, err := top.Create(cctx, "/served")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		if _, err := f.Append(cctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := f.ReadAt(cctx, buf, int64(i%8)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := top.Open(cctx, "/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open of a missing file: %v", err)
	}
	if err := top.Unmount(cctx); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	sum := tr.Analyze()
	spans := tr.Spans()
	if sum.Linked == 0 {
		t.Fatal("no server-side span was linked to an RPC")
	}
	for i, sp := range spans {
		if sp.Layer == Winefs && sp.Parent != 0 && spans[sp.Parent-1].Layer == Fileserver && spans[sp.Parent-1].Lane == sp.Lane {
			t.Errorf("span %d linked to an RPC on its own lane", i+1)
		}
	}
	checkNesting(t, spans, true)
	pc, rpc, wf := sum.Layers[Pagecache], sum.Layers[Fileserver], sum.Layers[Winefs]
	if pc.Calls == 0 || rpc.Calls == 0 || wf.Calls == 0 {
		t.Fatalf("a layer saw no calls: pagecache %d, fileserver %d, winefs %d", pc.Calls, rpc.Calls, wf.Calls)
	}
	if rpc.Calls >= pc.Calls {
		t.Errorf("the cache absorbed nothing: %d calls in, %d RPCs out", pc.Calls, rpc.Calls)
	}
	if rpc.Failed == 0 || pc.Failed == 0 {
		t.Errorf("the failed open was not flagged: pagecache %d, fileserver %d", pc.Failed, rpc.Failed)
	}
	if pc.SelfV <= 0 {
		t.Errorf("cache hits cost virtual time, but pagecache self time is %d", pc.SelfV)
	}
}

func TestTracerCapacityResetStop(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.End(tr.Start(ctx, Winefs, OpRead), nil)
	}
	if len(tr.Spans()) != 2 || tr.Dropped() != 3 {
		t.Errorf("full tracer: %d spans, %d dropped; want 2, 3", len(tr.Spans()), tr.Dropped())
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Errorf("after Reset: %d spans, %d dropped", len(tr.Spans()), tr.Dropped())
	}
	tr.End(tr.Start(ctx, Winefs, OpRead), nil)
	tr.Stop()
	tr.End(tr.Start(ctx, Winefs, OpRead), nil)
	if len(tr.Spans()) != 1 {
		t.Errorf("after Stop: %d spans, want 1", len(tr.Spans()))
	}
	if tr.Lane(ctx) != 0 || tr.Lane(sim.NewCtx(2, 0)) != -1 {
		t.Error("Lane: want 0 for the recorded ctx and -1 for a stranger")
	}
}

func TestWriteJSON(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	tr := New(8)
	outer := tr.Start(ctx, VMM, OpMapRead)
	ctx.Advance(100)
	inner := tr.Start(ctx, Winefs, OpFault)
	ctx.Advance(50)
	tr.End(inner, mmu.ErrOutOfRange)
	tr.End(outer, nil)
	tr.End(tr.Start(ctx, Maint, OpTierPass), nil)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, "w", 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload   string      `json:"workload"`
		Columns    []string    `json:"columns"`
		Layers     []string    `json:"layers"`
		Ops        []string    `json:"ops"`
		SpansTotal int         `json:"spans_total"`
		Spans      [][]float64 `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "w" || doc.SpansTotal != 3 || len(doc.Spans) != 2 || len(doc.Columns) != len(doc.Spans[0]) {
		t.Fatalf("unexpected document: %+v", doc)
	}
	child := doc.Spans[1]
	if child[1] != 1 || doc.Layers[int(child[4])] != "winefs" || doc.Ops[int(child[5])] != "fault" ||
		child[9]-child[8] != 50 || child[10] != 1 {
		t.Errorf("child row = %v", child)
	}
}
