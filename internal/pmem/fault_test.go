package pmem

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestPoisonCheckedReads(t *testing.T) {
	d := New(1 << 20)
	d.WriteAt([]byte{1, 2, 3, 4}, 4096)
	buf := make([]byte, 4)

	if err := d.ReadAtChecked(buf, 4096); err != nil {
		t.Fatalf("healthy read: %v", err)
	}
	d.Poison(4096, 1)
	err := d.ReadAtChecked(buf, 4096)
	var me *MediaError
	if !errors.As(err, &me) {
		t.Fatalf("poisoned read: got %v, want *MediaError", err)
	}
	if me.Line != 4096 {
		t.Fatalf("poisoned line = %d, want 4096", me.Line)
	}
	// Poison is line-granular: any read touching the line fails, a read of
	// the neighbouring line does not.
	if err := d.ReadAtChecked(buf, 4096+CacheLine-2); err == nil {
		t.Fatal("read straddling into a poisoned line succeeded")
	}
	if err := d.ReadAtChecked(buf, 4096+CacheLine); err != nil {
		t.Fatalf("read of the next line: %v", err)
	}
	// The unchecked path is the trusted-internal interface and still works.
	d.ReadAt(buf, 4096)
}

func TestReadCheckedChargesTime(t *testing.T) {
	d := New(1 << 20)
	d.Poison(0, 64)
	ctx := sim.NewCtx(1, 0)
	before := ctx.Now()
	buf := make([]byte, 64)
	if err := d.ReadChecked(ctx, buf, 0); err == nil {
		t.Fatal("poisoned ReadChecked succeeded")
	}
	if ctx.Now() == before {
		t.Fatal("failed read charged no virtual time (the load was issued)")
	}
}

func TestWriteClearsPoison(t *testing.T) {
	d := New(1 << 20)
	d.Poison(128, 128) // two lines
	buf := make([]byte, 64)

	// A full-line store re-arms the line.
	d.WriteAt(make([]byte, 64), 128)
	if err := d.ReadAtChecked(buf, 128); err != nil {
		t.Fatalf("full-line overwrite did not clear poison: %v", err)
	}
	// A partial-line store does not.
	d.WriteAt([]byte{9}, 192)
	if err := d.ReadAtChecked(buf, 192); err == nil {
		t.Fatal("partial-line overwrite cleared poison")
	}
	// ZeroRange over the whole line does.
	d.ZeroRange(192, 64)
	if err := d.ReadAtChecked(buf, 192); err != nil {
		t.Fatalf("ZeroRange did not clear poison: %v", err)
	}
}

func TestClearPoisonAndPoisonedLines(t *testing.T) {
	d := New(1 << 20)
	d.Poison(0, 256)
	if got := len(d.PoisonedLines(0, 256)); got != 4 {
		t.Fatalf("PoisonedLines = %d, want 4", got)
	}
	d.ClearPoison(64, 64)
	lines := d.PoisonedLines(0, 256)
	if len(lines) != 3 || lines[0] != 0 || lines[1] != 128 {
		t.Fatalf("after ClearPoison: %v", lines)
	}

	// Poison outside a queried range stays out of it, for the whole device
	// and for short ranges whose ends fall inside a line.
	d.Poison(d.Size()-1, 1)
	d.Poison(4096+10, 1)
	end := d.Size() - CacheLine
	for _, q := range []struct {
		off, n int64
		want   []int64
	}{
		{0, d.Size(), []int64{0, 128, 192, 4096, end}},
		{100, 3900, []int64{128, 192}},
		{100, 3997, []int64{128, 192, 4096}},
		{4160, end - 4160, nil},
		{256, 3840, nil},
		{0, 256, []int64{0, 128, 192}},
		{4097, 1, []int64{4096}},
		{64, 64, nil},
	} {
		if got := d.PoisonedLines(q.off, q.n); fmt.Sprint(got) != fmt.Sprint(q.want) {
			t.Errorf("PoisonedLines(%d, %d) = %v, want %v", q.off, q.n, got, q.want)
		}
	}
}

func TestReadRules(t *testing.T) {
	d := New(1 << 20)
	rules := []ReadRule{
		{Start: 0, End: 4096, Nth: 2},                      // persistent: poisons
		{Start: 8192, End: 12288, Nth: 1, Transient: true}, // transient: retry works
	}
	d.SetReadFaults(rules)
	buf := make([]byte, 64)
	if err := d.ReadAtChecked(buf, 0); err != nil {
		t.Fatalf("1st read should pass: %v", err)
	}
	if err := d.ReadAtChecked(buf, 0); err == nil {
		t.Fatal("2nd read should trip the Nth=2 rule")
	}
	// The persistent rule poisoned the lines: every later read fails too.
	if err := d.ReadAtChecked(buf, 0); err == nil {
		t.Fatal("persistent rule did not poison the line")
	}
	// Transient rule: first read fails, retry succeeds.
	if err := d.ReadAtChecked(buf, 8192); err == nil {
		t.Fatal("transient rule did not fire")
	}
	if err := d.ReadAtChecked(buf, 8192); err != nil {
		t.Fatalf("transient error persisted: %v", err)
	}
	if pr := d.PoisonedReads(); pr != 3 {
		t.Fatalf("poisonedReads = %d, want 3", pr)
	}
	// The device counts hits on its own copy of the rules, and nil removes
	// them.
	if rules[0].hits != 0 || rules[1].hits != 0 {
		t.Fatalf("the caller's rules were counted: %d, %d hits", rules[0].hits, rules[1].hits)
	}
	d.SetReadFaults([]ReadRule{{Start: 16384, End: 16448, Transient: true}})
	if err := d.ReadAtChecked(buf, 16384); err == nil {
		t.Fatal("a rule with Nth 0 did not fail its read")
	}
	d.SetReadFaults(nil)
	if err := d.ReadAtChecked(buf, 16384); err != nil {
		t.Fatalf("read after the rules were removed: %v", err)
	}
}

func TestCheckRange(t *testing.T) {
	d := New(4096)
	size := d.Size() // rounded up to a chunk multiple
	if err := d.CheckRange(0, size); err != nil {
		t.Fatalf("in-range: %v", err)
	}
	var re *RangeError
	if err := d.CheckRange(size-100, 200); !errors.As(err, &re) {
		t.Fatalf("out of range: got %v, want *RangeError", err)
	}
	if err := d.CheckRange(-1, 10); err == nil {
		t.Fatal("negative offset passed")
	}
	// CheckRange is range-only: poison does not affect it (extent walks use
	// it to validate pointers, not data health).
	d.Poison(0, 64)
	if err := d.CheckRange(0, 64); err != nil {
		t.Fatalf("CheckRange tripped on poison: %v", err)
	}
}

// TestPoisonedStoresDoNotAllocate: one poisoned line anywhere arms the
// device's fault state, and a store or fence elsewhere must still allocate
// nothing; a full-line store over the poisoned line still re-arms it.
func TestPoisonedStoresDoNotAllocate(t *testing.T) {
	d := New(1 << 20)
	defer d.Release()
	ctx := sim.NewCtx(1, 0)
	d.Poison(8192, 1)
	data := make([]byte, 4*CacheLine)
	d.Write(ctx, data, 0) // back the chunk off the clock
	if n := testing.AllocsPerRun(100, func() { d.Write(ctx, data, 0) }); n != 0 {
		t.Errorf("Write on a poisoned device: %v allocations per store, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Fence(ctx) }); n != 0 {
		t.Errorf("Fence on a poisoned device: %v allocations per fence, want 0", n)
	}
	d.Write(ctx, data[:CacheLine], 8192)
	if err := d.ReadAtChecked(data[:CacheLine], 8192); err != nil {
		t.Fatalf("full-line store over a poisoned line: %v", err)
	}
}
