package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	ctx := tr.NewContext(5)
	if ctx != nil {
		t.Fatal("nil tracer handed out a live context")
	}
	sp := ctx.Start("op", 100)
	if sp != nil {
		t.Fatal("nil context opened a span")
	}
	sp.SetAttr("k", "v") // must not panic
	ctx.End(sp, 200)     // must not panic
	tr.SetSlowLog(&bytes.Buffer{}, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanNestingAndEmitOrder(t *testing.T) {
	sink := NewCollect()
	tr := New(sink)
	ctx := tr.NewContext(9001)

	root := ctx.Start("rpc.create", 1000)
	child := ctx.Start("journal.commit", 1200)
	grand := ctx.Start("pmem.zero", 1300)
	ctx.End(grand, 1400)
	ctx.End(child, 1600)
	if len(ctx.stack) != 1 {
		t.Fatalf("depth = %d, want 1", len(ctx.stack))
	}
	root.SetAttr("path", "/a")
	ctx.End(root, 2000)

	spans := sink.Spans()
	if len(spans) != 3 {
		t.Fatalf("emitted %d spans", len(spans))
	}
	// Completion order: leaf first.
	if spans[0].Name != "pmem.zero" || spans[2].Name != "rpc.create" {
		t.Fatalf("order: %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].ParentID != spans[1].ID || spans[1].ParentID != spans[2].ID {
		t.Fatal("parent links broken")
	}
	if spans[2].ParentID != 0 {
		t.Fatalf("root has parent %d", spans[2].ParentID)
	}
	if spans[2].DurNS != 1000 || spans[2].StartNS != 1000 || spans[2].EndNS != 2000 {
		t.Fatalf("root timing: %+v", spans[2])
	}
	if spans[2].Attrs["path"] != "/a" {
		t.Fatalf("attrs: %+v", spans[2].Attrs)
	}
	if spans[2].Thread != 9001 {
		t.Fatalf("thread = %d", spans[2].Thread)
	}
}

func TestEndUnwindsLeakedChildren(t *testing.T) {
	tr := New(NewCollect())
	ctx := tr.NewContext(1)
	root := ctx.Start("outer", 0)
	ctx.Start("leaked", 10) // never ended
	ctx.End(root, 100)
	if next := ctx.Start("next", 200); next.ParentID != 0 {
		t.Fatalf("a span started after unwinding has parent %d, want none", next.ParentID)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	ctx := tr.NewContext(3)
	sp := ctx.Start("winefs.write", 500)
	sp.Mark = Breakdown{CopyNS: 100}
	sp.Cost = Breakdown{CopyNS: 40, JournalNS: 7}
	ctx.End(sp, 900)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no JSONL line")
	}
	var got Span
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		t.Fatalf("bad JSONL: %v", err)
	}
	if got.Name != "winefs.write" || got.DurNS != 400 || got.Cost.CopyNS != 40 || got.Cost.JournalNS != 7 {
		t.Fatalf("round-trip: %+v", got)
	}
	// Mark is scratch space and must not leak into the wire format.
	if strings.Contains(buf.String(), "Mark") {
		t.Fatal("Mark serialized")
	}
}

func TestChromeSinkDocument(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChrome(&buf)
	tr := New(sink)
	ctx := tr.NewContext(42)
	sp := ctx.Start("rpc.read", 2_000)
	sp.SetAttr("status", "ok")
	sp.Cost = Breakdown{SyscallNS: 120}
	ctx.End(sp, 5_000)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome doc does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "rpc.read" || ev.Ph != "X" || ev.TID != 42 {
		t.Fatalf("event: %+v", ev)
	}
	if ev.TS != 2.0 || ev.Dur != 3.0 { // ns → µs
		t.Fatalf("timing: ts=%v dur=%v", ev.TS, ev.Dur)
	}
	if ev.Args["status"] != "ok" || ev.Args["syscall_ns"] != float64(120) {
		t.Fatalf("args: %+v", ev.Args)
	}
}

func TestChromeSinkEmptyTraceIsLoadable(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewChrome(&buf))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents is null, want []")
	}
}

func TestSlowOpLog(t *testing.T) {
	var slow bytes.Buffer
	tr := New(NewCollect())
	tr.SetSlowLog(&slow, 1000)
	ctx := tr.NewContext(7)

	fast := ctx.Start("rpc.stat", 0)
	ctx.End(fast, 500)
	op := ctx.Start("rpc.write", 1000)
	inner := ctx.Start("journal.commit", 1100)
	ctx.End(inner, 9000) // long child span: must NOT log (not a root)
	op.Cost = Breakdown{JournalNS: 7900}
	ctx.End(op, 10_000)

	out := slow.String()
	if strings.Contains(out, "rpc.stat") {
		t.Fatalf("fast op logged: %q", out)
	}
	if strings.Contains(out, "journal.commit") {
		t.Fatalf("non-root span logged: %q", out)
	}
	if !strings.Contains(out, "SLOW rpc.write") || !strings.Contains(out, "dur=9000ns") {
		t.Fatalf("slow root op missing: %q", out)
	}
	if !strings.Contains(out, "journal=7900") {
		t.Fatalf("breakdown missing: %q", out)
	}
}

func TestBreakdownSub(t *testing.T) {
	a := Breakdown{SyscallNS: 10, LockWaitNS: 20, JournalNS: 30, CopyNS: 40, FaultNS: 50, ZeroNS: 60}
	b := Breakdown{SyscallNS: 1, LockWaitNS: 2, JournalNS: 3, CopyNS: 4, FaultNS: 5, ZeroNS: 6}
	d := a.Sub(b)
	want := Breakdown{SyscallNS: 9, LockWaitNS: 18, JournalNS: 27, CopyNS: 36, FaultNS: 45, ZeroNS: 54}
	if d != want {
		t.Fatalf("Sub = %+v", d)
	}
}
