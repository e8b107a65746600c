// Package trace provides structured per-operation spans over the simulator's
// virtual clock. A Span records a named interval of virtual time plus a
// Breakdown of where that time went (syscall entry, lock wait, journal, data
// copy, fault and zero-fill work), and spans nest into a tree: the fileserver
// opens a root span per request, the filesystem opens child spans for journal
// commits, the MMU for fault handling, the device for bulk zeroing.
//
// The package deliberately imports only the standard library — the simulator
// (internal/sim) imports trace, never the reverse — and records nothing by
// itself: the caller supplies both timestamps and breakdowns, so tracing can
// never advance the virtual clock or perturb the numbers it observes. A nil
// *Tracer (and the nil *Context it hands out) is the disabled state; every
// method is nil-safe and the enabled check is a single pointer test.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Breakdown attributes a span's virtual time to the major cost centers the
// paper's figures are built from. All values are virtual nanoseconds.
// Components are informational and may overlap (JournalNS is elapsed time
// inside journal transaction machinery, which includes the PM traffic of
// the entries themselves, also counted by CopyNS); they need not sum to
// the span's duration.
type Breakdown struct {
	SyscallNS  int64 `json:"syscall_ns,omitempty"`
	LockWaitNS int64 `json:"lock_wait_ns,omitempty"`
	JournalNS  int64 `json:"journal_ns,omitempty"`
	CopyNS     int64 `json:"copy_ns,omitempty"`
	FaultNS    int64 `json:"fault_ns,omitempty"`
	ZeroNS     int64 `json:"zero_ns,omitempty"`
}

// Sub returns b - o, the cost accrued between two counter snapshots.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	return Breakdown{
		SyscallNS:  b.SyscallNS - o.SyscallNS,
		LockWaitNS: b.LockWaitNS - o.LockWaitNS,
		JournalNS:  b.JournalNS - o.JournalNS,
		CopyNS:     b.CopyNS - o.CopyNS,
		FaultNS:    b.FaultNS - o.FaultNS,
		ZeroNS:     b.ZeroNS - o.ZeroNS,
	}
}

// Span is one traced operation. Spans are created by Context.Start and
// sealed by Context.End; between the two the owner may attach attributes.
type Span struct {
	ID       uint64            `json:"id"`
	ParentID uint64            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Thread   int               `json:"thread"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	DurNS    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Cost     Breakdown         `json:"breakdown"`

	// Mark is scratch space for the span's owner: the simulator stores the
	// counter snapshot taken at Start here and diffs it at End to produce
	// Cost. It never appears in emitted output.
	Mark Breakdown `json:"-"`
}

// SetAttr attaches a key/value annotation to the span. Nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// Sink receives completed spans. Emit is called with the span fully sealed
// (EndNS, DurNS and Cost populated); implementations must be safe for
// concurrent use, as server sessions trace from independent goroutines.
type Sink interface {
	Emit(sp *Span)
	Close() error
}

// NopSink discards every span. Use it when only the slow-op log is wanted:
// trace.New(trace.NopSink{}) with SetSlowLog keeps span bookkeeping on and
// the per-span emission cost at zero.
type NopSink struct{}

// Emit discards sp.
func (NopSink) Emit(sp *Span) {}

// Close is a no-op.
func (NopSink) Close() error { return nil }

// Tracer fans completed spans out to a sink and, optionally, a slow-op log.
// One Tracer serves a whole process; per-thread state lives in the Contexts
// it hands out.
type Tracer struct {
	sink   Sink
	nextID atomic.Uint64

	slowMu sync.Mutex
	slowW  io.Writer
	slowNS int64
}

// New returns a Tracer emitting into sink. A nil receiver anywhere in the
// API means tracing is disabled.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// SetSlowLog arranges for every completed root span whose duration is at
// least thresholdNS virtual nanoseconds to be logged, one line per op, to w.
func (t *Tracer) SetSlowLog(w io.Writer, thresholdNS int64) {
	if t == nil {
		return
	}
	t.slowMu.Lock()
	t.slowW, t.slowNS = w, thresholdNS
	t.slowMu.Unlock()
}

// NewContext returns the per-thread tracing context for a simulated thread.
// Returns nil (the disabled context) on a nil Tracer.
func (t *Tracer) NewContext(thread int) *Context {
	if t == nil {
		return nil
	}
	return &Context{t: t, thread: thread}
}

// Close flushes and closes the underlying sink.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

func (t *Tracer) emit(sp *Span, root bool) {
	if t.sink != nil {
		t.sink.Emit(sp)
	}
	if !root {
		return
	}
	t.slowMu.Lock()
	w, slow := t.slowW, t.slowNS
	t.slowMu.Unlock()
	if w != nil && sp.DurNS >= slow {
		fmt.Fprintf(w, "SLOW %s thread=%d dur=%dns syscall=%d lock=%d journal=%d copy=%d fault=%d zero=%d\n",
			sp.Name, sp.Thread, sp.DurNS,
			sp.Cost.SyscallNS, sp.Cost.LockWaitNS, sp.Cost.JournalNS,
			sp.Cost.CopyNS, sp.Cost.FaultNS, sp.Cost.ZeroNS)
	}
}

// Context is the per-thread span stack. It is owned by a single simulated
// thread and is not safe for concurrent use — exactly like the sim.Ctx it
// rides on. The nil Context is valid and does nothing.
type Context struct {
	t      *Tracer
	thread int
	stack  []*Span
}

// Start opens a span at virtual time nowNS, nested under the thread's
// current span if one is open. Returns nil when tracing is disabled.
func (c *Context) Start(name string, nowNS int64) *Span {
	if c == nil {
		return nil
	}
	sp := &Span{
		ID:      c.t.nextID.Add(1),
		Name:    name,
		Thread:  c.thread,
		StartNS: nowNS,
	}
	if n := len(c.stack); n > 0 {
		sp.ParentID = c.stack[n-1].ID
	}
	c.stack = append(c.stack, sp)
	return sp
}

// End seals sp at virtual time nowNS and emits it. Spans must end in LIFO
// order; End unwinds the stack to sp so a leaked child cannot wedge the
// thread's stack. Nil-safe in both receiver and span.
func (c *Context) End(sp *Span, nowNS int64) {
	if c == nil || sp == nil {
		return
	}
	for n := len(c.stack); n > 0; n = len(c.stack) {
		top := c.stack[n-1]
		c.stack = c.stack[:n-1]
		if top == sp {
			break
		}
	}
	sp.EndNS = nowNS
	sp.DurNS = nowNS - sp.StartNS
	c.t.emit(sp, len(c.stack) == 0)
}

// JSONLSink writes one JSON object per completed span, newline-delimited,
// in completion order (children before parents).
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing JSONL spans to w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

// Emit writes the span as one JSON line.
func (s *JSONLSink) Emit(sp *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.enc.Encode(sp)
	}
}

// Close reports the first write error, if any, and closes w when it is a
// Closer.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// chromeEvent is one Chrome trace-event ("X" complete event). Timestamps
// and durations are microseconds, per the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeSink accumulates spans and, on Close, writes a Chrome trace-event
// JSON document ({"traceEvents": [...]}) loadable by chrome://tracing and
// Perfetto. Virtual nanoseconds map to trace microseconds.
type ChromeSink struct {
	mu     sync.Mutex
	w      io.Writer
	events []chromeEvent
}

// NewChrome returns a sink producing a Chrome trace-event file on w.
func NewChrome(w io.Writer) *ChromeSink {
	return &ChromeSink{w: w}
}

// Emit buffers one complete ("X") event for the span.
func (s *ChromeSink) Emit(sp *Span) {
	args := map[string]any{
		"syscall_ns":   sp.Cost.SyscallNS,
		"lock_wait_ns": sp.Cost.LockWaitNS,
		"journal_ns":   sp.Cost.JournalNS,
		"copy_ns":      sp.Cost.CopyNS,
		"fault_ns":     sp.Cost.FaultNS,
		"zero_ns":      sp.Cost.ZeroNS,
	}
	for k, v := range sp.Attrs {
		args[k] = v
	}
	ev := chromeEvent{
		Name: sp.Name,
		Cat:  "vt",
		Ph:   "X",
		TS:   float64(sp.StartNS) / 1e3,
		Dur:  float64(sp.DurNS) / 1e3,
		PID:  1,
		TID:  sp.Thread,
		Args: args,
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Close writes the accumulated trace document and closes w when it is a
// Closer.
func (s *ChromeSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		TimeUnit    string        `json:"displayTimeUnit"`
	}{TraceEvents: s.events, TimeUnit: "ns"}
	if s.events == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	err := json.NewEncoder(s.w).Encode(doc)
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CollectSink retains completed spans in memory; tests and in-process
// consumers (span-tree assertions, winebench summaries) read them back.
type CollectSink struct {
	mu    sync.Mutex
	spans []*Span
}

// NewCollect returns an in-memory sink.
func NewCollect() *CollectSink { return &CollectSink{} }

// Emit retains the span.
func (s *CollectSink) Emit(sp *Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// Close is a no-op.
func (s *CollectSink) Close() error { return nil }

// Spans returns the completed spans in completion order.
func (s *CollectSink) Spans() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.spans))
	copy(out, s.spans)
	return out
}
