// Package tracefs records spans at the layer boundaries of the serving
// stack that can be reached from outside the program: it decorates
// vfs.FS / vfs.File values (and the mapping handle the driver holds) so
// every call that crosses a boundary leaves one span carrying both the
// host clock and the calling thread's virtual clock.
//
// A decorator never advances a virtual clock and never touches a
// counter: a wrapped and an unwrapped stack fed the same op stream end
// at the same ctx.Now() with identical perf.Counters (tracefs_test.go
// holds that).
package tracefs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Layer names the package a span's time is spent in: a decorator is
// built with the layer of the value it wraps.
type Layer uint8

// Layers of the repo that have a boundary reachable from outside.
const (
	Pagecache Layer = iota
	Fileserver
	Winefs
	VMM
	Maint
	NumLayers
)

var layerNames = [NumLayers]string{"pagecache", "fileserver", "winefs", "vmm", "maint"}

func (l Layer) String() string { return layerNames[l] }

// Op names the call a span covers.
type Op uint8

// Calls that cross a boundary.
const (
	OpCreate Op = iota
	OpOpen
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpStat
	OpReadDir
	OpStatFS
	OpUnmount
	OpRead
	OpWrite
	OpAppend
	OpTruncate
	OpFallocate
	OpFsync
	OpMmap
	OpSetXattr
	OpGetXattr
	OpClose
	OpLease
	OpUnlease
	OpFault
	OpMsyncRange
	OpPunchHole
	OpMapRead
	OpMapWrite
	OpMapTouch
	OpMsync
	OpMapClose
	OpDefragPass
	OpTierPass
	OpRewriter
	NumOps
)

var opNames = [NumOps]string{
	"create", "open", "mkdir", "unlink", "rmdir", "rename", "stat", "readdir",
	"statfs", "unmount", "read", "write", "append", "truncate", "fallocate",
	"fsync", "mmap", "setxattr", "getxattr", "close", "lease", "unlease",
	"fault", "msync_range", "punch_hole", "map_read", "map_write", "map_touch",
	"msync", "map_close", "defrag_pass", "tier_pass", "rewriter",
}

func (o Op) String() string { return opNames[o] }

// Span is one boundary crossing. IDs are 1-based positions in the
// tracer's span slice; Parent 0 marks a root. V0/V1 are read from the
// calling thread's own virtual clock, so a child recorded on another
// simulated thread (the server session behind an RPC) shares only its
// duration, not its instants, with its parent. H0/H1 are host
// nanoseconds since the tracer was made.
type Span struct {
	Parent int32
	Req    uint32 // driver-level operation the span belongs to (per lane, 1-based)
	Lane   uint16 // simulated thread the span was recorded on
	Layer  Layer
	Op     Op
	Failed bool // the call returned an error
	H0, H1 int64
	V0, V1 int64
}

// Buckets are the cost-centre counters of perf.Counters that carry
// virtual time, summed over a layer's entry spans.
type Buckets struct {
	SyscallNS, LockWaitNS, JournalNS, CopyNS, ZeroNS, PageWalkNS, FaultNS int64
}

func bucketsOf(ctx *sim.Ctx) Buckets {
	c := ctx.Counters
	return Buckets{c.SyscallNS, c.LockWaitNS, c.JournalNS, c.CopyNS, c.ZeroNS, c.PageWalkNS, c.FaultNS}
}

func (b *Buckets) addDelta(now, then Buckets) {
	b.SyscallNS += now.SyscallNS - then.SyscallNS
	b.LockWaitNS += now.LockWaitNS - then.LockWaitNS
	b.JournalNS += now.JournalNS - then.JournalNS
	b.CopyNS += now.CopyNS - then.CopyNS
	b.ZeroNS += now.ZeroNS - then.ZeroNS
	b.PageWalkNS += now.PageWalkNS - then.PageWalkNS
	b.FaultNS += now.FaultNS - then.FaultNS
}

// Add accumulates o into b.
func (b *Buckets) Add(o Buckets) {
	b.addDelta(o, Buckets{})
}

// frame is an open span on a lane's stack.
type frame struct {
	id    int32 // 0 when the span slice was full and the span is dropped
	layer Layer
	entry bool // the span enters its layer from another one
	at    Buckets
}

// lane is the span stack of one simulated thread. A sim.Ctx is owned by
// one goroutine at a time, so a lane needs no lock.
type lane struct {
	ctx     *sim.Ctx
	idx     uint16
	stack   []frame
	req     uint32
	buckets [NumLayers]Buckets
}

// Tracer collects spans into a slice sized when it is made; spans past
// its capacity are counted, not stored.
type Tracer struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int64
	dropped atomic.Int64
	stopped atomic.Bool

	lanes  atomic.Pointer[[]*lane]
	laneMu sync.Mutex
}

// New returns a tracer with room for capacity spans.
func New(capacity int) *Tracer {
	t := &Tracer{epoch: time.Now(), spans: make([]Span, capacity)}
	t.lanes.Store(new([]*lane))
	return t
}

// laneOf finds ctx's lane, registering it on first sight. The lane list
// is copy-on-write: lookups are one atomic load and a scan of a handful
// of pointers.
func (t *Tracer) laneOf(ctx *sim.Ctx) *lane {
	for _, l := range *t.lanes.Load() {
		if l.ctx == ctx {
			return l
		}
	}
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	old := *t.lanes.Load()
	for _, l := range old {
		if l.ctx == ctx {
			return l
		}
	}
	l := &lane{ctx: ctx, idx: uint16(len(old)), stack: make([]frame, 0, 8)}
	grown := append(append(make([]*lane, 0, len(old)+1), old...), l)
	t.lanes.Store(&grown)
	return l
}

// Lane returns the lane number spans recorded on ctx carry, or -1 if
// ctx never recorded one.
func (t *Tracer) Lane(ctx *sim.Ctx) int {
	for _, l := range *t.lanes.Load() {
		if l.ctx == ctx {
			return int(l.idx)
		}
	}
	return -1
}

// Handle identifies an open span between Start and End.
type Handle struct {
	l  *lane
	id int32
}

// Reset forgets everything recorded so far — set-up and warm-up — so
// the trace covers the measured phase alone. No span may be open.
func (t *Tracer) Reset() {
	t.next.Store(0)
	t.dropped.Store(0)
	for _, l := range *t.lanes.Load() {
		l.req = 0
		l.buckets = [NumLayers]Buckets{}
	}
}

// Stop ends the trace: spans started afterwards are not recorded.
func (t *Tracer) Stop() { t.stopped.Store(true) }

// Start opens a span on ctx's lane. A nil or stopped tracer records
// nothing.
func (t *Tracer) Start(ctx *sim.Ctx, layer Layer, op Op) Handle {
	if t == nil || t.stopped.Load() {
		return Handle{}
	}
	l := t.laneOf(ctx)
	fr := frame{layer: layer}
	var parent int32
	if n := len(l.stack); n == 0 {
		l.req++
		fr.entry = true
	} else {
		parent = l.stack[n-1].id
		fr.entry = l.stack[n-1].layer != layer
	}
	if fr.entry {
		fr.at = bucketsOf(ctx)
	}
	if i := t.next.Add(1); i <= int64(len(t.spans)) {
		fr.id = int32(i)
		t.spans[i-1] = Span{
			Parent: parent, Req: l.req, Lane: l.idx, Layer: layer, Op: op,
			V0: ctx.Now(), H0: int64(time.Since(t.epoch)),
		}
	} else {
		t.dropped.Add(1)
	}
	l.stack = append(l.stack, fr)
	return Handle{l: l, id: fr.id}
}

// End closes the span Start opened, noting whether the call it covered
// failed. Spans on one lane close in LIFO order.
func (t *Tracer) End(h Handle, err error) {
	if t == nil || h.l == nil {
		return
	}
	l := h.l
	fr := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if fr.id > 0 {
		sp := &t.spans[fr.id-1]
		sp.H1 = int64(time.Since(t.epoch))
		sp.V1 = l.ctx.Now()
		sp.Failed = err != nil
	}
	if fr.entry {
		l.buckets[fr.layer].addDelta(bucketsOf(l.ctx), fr.at)
	}
}

// Spans returns the recorded spans (shared with the tracer; call it
// once the traced run is over).
func (t *Tracer) Spans() []Span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// Dropped reports how many spans did not fit.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// LayerStats is the digest of one layer's spans.
type LayerStats struct {
	Calls        int64 // entry spans: calls that came in from another layer (or the driver)
	Failed       int64 // entry spans whose call returned an error
	SpanV, SpanH int64 // entry spans' inclusive virtual / host time
	SelfV, SelfH int64 // all spans' time minus their children's
	Buckets      Buckets
}

// OpStats is the digest of one kind of call into one layer.
type OpStats struct {
	Calls        int64
	SpanV, SpanH int64
}

// Summary is what Analyze derives from a finished trace.
type Summary struct {
	Layers       [NumLayers]LayerStats
	ByOp         [NumLayers][NumOps]OpStats
	RootV, RootH int64 // time under root spans: the top-level operations
	Roots        int64
	LaneRootH    []int64 // RootH split by lane (see Tracer.Lane)
	Linked       int64   // server-side roots re-parented under the RPC that caused them
}

// Analyze links the spans a server session recorded under the client
// RPC spans that caused them, then digests self and inclusive time per
// layer. With direct dispatch the server half of an RPC runs inside
// the client call on the host clock, so host-time containment
// identifies the parent; only durations carry over on the virtual
// clock, because the session thread keeps its own.
func (t *Tracer) Analyze() Summary {
	spans := t.Spans()
	linked := linkRemote(spans)

	childV := make([]int64, len(spans))
	childH := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			childV[p-1] += spans[i].V1 - spans[i].V0
			childH[p-1] += spans[i].H1 - spans[i].H0
		}
	}
	var s Summary
	s.Linked = linked
	s.LaneRootH = make([]int64, len(*t.lanes.Load()))
	for i := range spans {
		sp := &spans[i]
		dv, dh := sp.V1-sp.V0, sp.H1-sp.H0
		ls := &s.Layers[sp.Layer]
		ls.SelfV += dv - childV[i]
		ls.SelfH += dh - childH[i]
		os := &s.ByOp[sp.Layer][sp.Op]
		os.Calls++
		os.SpanV += dv
		os.SpanH += dh
		if sp.Parent == 0 || spans[sp.Parent-1].Layer != sp.Layer {
			ls.Calls++
			if sp.Failed {
				ls.Failed++
			}
			ls.SpanV += dv
			ls.SpanH += dh
		}
		if sp.Parent == 0 {
			s.Roots++
			s.RootV += dv
			s.RootH += dh
			s.LaneRootH[sp.Lane] += dh
		}
	}
	for _, l := range *t.lanes.Load() {
		for i := range l.buckets {
			s.Layers[i].Buckets.Add(l.buckets[i])
		}
	}
	return s
}

// linkRemote gives every root span recorded below a fileserver span's
// lane — a winefs call made by a server session — the innermost
// fileserver-layer span of another lane that contains it on the host
// clock as its parent. It returns the number of spans it linked.
func linkRemote(spans []Span) int64 {
	var rpcs, roots []int32
	for i := range spans {
		switch {
		case spans[i].Layer == Fileserver:
			rpcs = append(rpcs, int32(i))
		case spans[i].Parent == 0 && spans[i].Layer == Winefs:
			roots = append(roots, int32(i))
		}
	}
	if len(rpcs) == 0 || len(roots) == 0 {
		return 0
	}
	byStart := func(ix []int32) {
		sort.Slice(ix, func(a, b int) bool { return spans[ix[a]].H0 < spans[ix[b]].H0 })
	}
	byStart(rpcs)
	byStart(roots)
	var linked int64
	var open []int32 // RPC spans that started before the current root and may still contain it
	next := 0
	for _, r := range roots {
		sp := &spans[r]
		for next < len(rpcs) && spans[rpcs[next]].H0 <= sp.H0 {
			open = append(open, rpcs[next])
			next++
		}
		keep := open[:0]
		best := int32(-1)
		for _, c := range open {
			if spans[c].H1 < sp.H0 {
				continue // ended before this root began: never a parent again
			}
			keep = append(keep, c)
			if spans[c].Lane != sp.Lane && spans[c].H1 >= sp.H1 &&
				(best < 0 || spans[c].H0 > spans[best].H0) {
				best = c
			}
		}
		open = keep
		if best >= 0 {
			sp.Parent = best + 1
			sp.Req = spans[best].Req
			linked++
		}
	}
	return linked
}

// WriteJSON writes at most limit spans as compact rows
// [id, parent, req, lane, layer, op, h0, h1, v0, v1, failed], with the name
// tables needed to read them.
func (t *Tracer) WriteJSON(w io.Writer, workload string, limit int) error {
	spans := t.Spans()
	total := len(spans)
	if len(spans) > limit {
		spans = spans[:limit]
	}
	rows := make([][11]int64, len(spans))
	for i, sp := range spans {
		rows[i] = [11]int64{int64(i + 1), int64(sp.Parent), int64(sp.Req), int64(sp.Lane),
			int64(sp.Layer), int64(sp.Op), sp.H0, sp.H1, sp.V0, sp.V1, b2i(sp.Failed)}
	}
	return json.NewEncoder(w).Encode(struct {
		Workload     string      `json:"workload"`
		Columns      []string    `json:"columns"`
		Layers       []string    `json:"layers"`
		Ops          []string    `json:"ops"`
		SpansTotal   int         `json:"spans_total"`
		SpansDropped int64       `json:"spans_dropped"`
		Spans        [][11]int64 `json:"spans"`
	}{
		Workload:     workload,
		Columns:      []string{"id", "parent", "req", "lane", "layer", "op", "host_start_ns", "host_end_ns", "virt_start_ns", "virt_end_ns", "failed"},
		Layers:       layerNames[:],
		Ops:          opNames[:],
		SpansTotal:   total,
		SpansDropped: t.Dropped(),
		Spans:        rows,
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
