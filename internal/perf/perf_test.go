package perf

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCountersAddReset(t *testing.T) {
	a := &Counters{PageFaults: 3, TLBMisses: 7, PMWriteBytes: 100, LockWaitNS: 5}
	b := &Counters{PageFaults: 2, HugeFaults: 1, LLCMisses: 4}
	a.Add(b)
	if a.PageFaults != 5 || a.HugeFaults != 1 || a.TLBMisses != 7 || a.LLCMisses != 4 {
		t.Fatalf("add: %+v", a)
	}
	if a.TotalFaults() != 6 {
		t.Fatalf("total faults = %d", a.TotalFaults())
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
	a.Reset()
	if a.PageFaults != 0 || a.PMWriteBytes != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestCountersAddExhaustive is the regression test for the silent-counter-
// loss bug: Add used to hand-enumerate fields, so any newly added field was
// dropped from cross-thread aggregation. Every field is set to a distinct
// nonzero value via reflection; after Add each must have doubled.
func TestCountersAddExhaustive(t *testing.T) {
	mk := func() *Counters {
		c := &Counters{}
		cv := reflect.ValueOf(c).Elem()
		for i := 0; i < cv.NumField(); i++ {
			cv.Field(i).SetInt(int64(i + 1))
		}
		return c
	}
	a, b := mk(), mk()
	a.Add(b)
	av := reflect.ValueOf(a).Elem()
	at := av.Type()
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Add dropped Counters.%s: got %d, want %d", at.Field(i).Name, got, want)
		}
	}
}

// TestCountersFields: Fields must cover the whole struct, in order, with
// live values.
func TestCountersFields(t *testing.T) {
	c := &Counters{PageFaults: 7, Rewrites: 3, SyscallNS: 11}
	fields := c.Fields()
	if want := reflect.TypeOf(Counters{}).NumField(); len(fields) != want {
		t.Fatalf("Fields() covers %d of %d fields", len(fields), want)
	}
	byName := map[string]int64{}
	for _, f := range fields {
		byName[f.Name] = f.Value
	}
	if byName["PageFaults"] != 7 || byName["Rewrites"] != 3 || byName["SyscallNS"] != 11 {
		t.Fatalf("Fields() values wrong: %+v", byName)
	}
}

// TestQuantileExactRanks is the regression test for the rank off-by-one:
// with 99 samples at 10 and one at 1e6, P99 is the 99th smallest sample —
// 10 — while the buggy selection returned the max bucket.
func TestQuantileExactRanks(t *testing.T) {
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"p99-of-100-skewed", append(repeat(10, 99), 1e6), 0.99, 10},
		{"p100-of-100-skewed", append(repeat(10, 99), 1e6), 1.0, 1e6},
		{"single-sample-median", []int64{7}, 0.5, 7},
		{"single-sample-p99", []int64{7}, 0.99, 7},
		{"two-samples-p50-is-first", []int64{10, 1000}, 0.5, 10},
		{"two-samples-p51-is-second", []int64{10, 1000}, 0.51, 1000},
		{"four-modes-p25", []int64{10, 100, 1000, 10000}, 0.25, 10},
		{"four-modes-p75", []int64{10, 100, 1000, 10000}, 0.75, 1000},
	}
	for _, tc := range cases {
		h := &Histogram{}
		for _, s := range tc.samples {
			h.Record(s)
		}
		got := h.Quantile(tc.q)
		// Bucketed values carry ≤ ~5% relative error; exact-rank selection
		// must land in the right mode.
		lo, hi := tc.want-tc.want/20-1, tc.want+tc.want/20+1
		if got < lo || got > hi {
			t.Errorf("%s: Quantile(%g) = %d, want ≈%d", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestQuantileClamped: the geometric bucket midpoint must never escape the
// recorded [Min, Max] range. An all-9s histogram's bucket midpoint is 8,
// which the unclamped code reported as the median.
func TestQuantileClamped(t *testing.T) {
	for _, v := range []int64{3, 9, 13, 1000, 999983} {
		h := &Histogram{}
		for i := 0; i < 10; i++ {
			h.Record(v)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
			if got := h.Quantile(q); got != v {
				t.Errorf("constant histogram of %d: Quantile(%g) = %d", v, q, got)
			}
		}
	}
	// Mixed histogram: every quantile stays within [Min, Max].
	h := &Histogram{}
	for i := int64(1); i <= 137; i++ {
		h.Record(i * 13)
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < h.Quantile(0) || v > h.Max() {
			t.Fatalf("Quantile(%g) = %d outside [%d, %d]", q, v, h.Quantile(0), h.Max())
		}
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Median() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 || h.Quantile(0) != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Quantile(0), h.Max())
	}
	med := h.Median()
	if med < 400 || med > 600 {
		t.Fatalf("median = %d, want ≈500", med)
	}
	if m := h.Mean(); m < 450 || m > 550 {
		t.Fatalf("mean = %f", m)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1100 {
		t.Fatalf("p99 = %d", p99)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 1000 {
		t.Fatal("extreme quantiles")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.Record(10)
		b.Record(1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if a.Quantile(0) != 10 || a.Max() != 1000 {
		t.Fatalf("merged range [%d,%d]", a.Quantile(0), a.Max())
	}
	// Median of a 50/50 mix sits at one of the two modes.
	med := a.Median()
	if med > 12 && (med < 950 || med > 1050) {
		t.Fatalf("merged median = %d", med)
	}
}

// TestHistogramQuantileProperty: quantiles are monotone and bounded by the
// recorded range (within bucket resolution).
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := &Histogram{}
		for _, s := range samples {
			h.Record(int64(s%1000000) + 1)
		}
		prev := int64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		// Bucketed values carry ≤ ~5% relative error.
		return float64(h.Quantile(0.999)) <= float64(h.Max())*1.05+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
