package main

import (
	"errors"
	"math"
	"testing"
)

func TestMedianKops(t *testing.T) {
	cases := []struct {
		name    string
		batches []batch
		want    float64
	}{
		{"empty", nil, 0},
		{"one", []batch{{1000, 1e6}}, 1000},
		{"odd takes middle", []batch{{1000, 1e6}, {1000, 2e6}, {1000, 4e6}}, 500},
		{"even averages the middle two", []batch{{1000, 1e6}, {1000, 2e6}, {1000, 4e6}, {1000, 8e6}}, 375},
		{"a stalled batch does not move it", []batch{{1000, 1e6}, {1000, 1e6}, {1000, 1e9}}, 1000},
		{"zero-time batch is skipped", []batch{{1000, 0}, {1000, 1e6}}, 1000},
	}
	for _, c := range cases {
		if got := medianKops(c.batches); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: medianKops = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	ramp := func(n int) *latHist {
		h := newLatHist()
		for i := 1; i <= n; i++ {
			h.add(int64(i))
		}
		return h
	}
	withBig := ramp(1000)
	for i := 0; i < 20; i++ {
		withBig.add(latDense + int64(100-i))
	}
	cases := []struct {
		name    string
		h       *latHist
		q       float64
		want    int64
		refused bool
	}{
		{"empty refuses", newLatHist(), 0.5, 0, true},
		{"median of 1..1000", ramp(1000), 0.5, 500, false},
		{"p99 of 1..1000 has exactly 10 beyond", ramp(1000), 0.99, 990, false},
		{"p99 of 1..999 has 9 beyond", ramp(999), 0.99, 0, true},
		{"p99.9 of 1..1000 has 1 beyond", ramp(1000), 0.999, 0, true},
		{"p99.9 of 1..10000", ramp(10000), 0.999, 9990, false},
		{"median needs no tail", ramp(3), 0.5, 2, false},
		{"rank in the raw tail, sorted on demand", withBig, 0.99, latDense + 90, false},
	}
	for _, c := range cases {
		got, err := c.h.quantile(c.q)
		if c.refused {
			if !errors.Is(err, errFewSamples) {
				t.Errorf("%s: err = %v, want errFewSamples", c.name, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s: quantile(%v) = %d, %v; want %d", c.name, c.q, got, err, c.want)
		}
	}
	if n := ramp(1000).n; n != 1000 {
		t.Errorf("sample count = %d, want 1000", n)
	}
}

func TestLatHistMerge(t *testing.T) {
	a, b := newLatHist(), newLatHist()
	for i := 0; i < 100; i++ {
		a.add(10)
		b.add(20)
	}
	b.add(latDense + 5)
	a.merge(b)
	if a.n != 201 {
		t.Fatalf("merged count = %d, want 201", a.n)
	}
	if got, _ := a.quantile(0.5); got != 20 {
		t.Errorf("merged median = %d, want 20", got)
	}
}

// The quartiles must be the ones the driver computes, or a spread this
// package calls safe could still be refused.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-value quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2}); q1 != 1 || q3 != 5 {
		t.Errorf("seven-value quartiles = %v, %v; want 1, 5", q1, q3)
	}
}

func TestLimitCompare(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m, m, m, m, m} }
	noisy := func(m float64) []float64 { return []float64{0.7 * m, 0.85 * m, m, 1.15 * m, 1.3 * m} }
	cases := []struct {
		name          string
		l             limit
		before, after []float64
		want          verdict
	}{
		{"higher-better up past the bound", limit{rel: 0.10}, steady(100), steady(120), better},
		{"higher-better down past the bound", limit{rel: 0.10}, steady(100), steady(80), worse},
		{"inside the relative bound", limit{rel: 0.10}, steady(100), steady(95), unchanged},
		{"lower-better down past the bound", limit{rel: 0.10, lower: true}, steady(100), steady(80), better},
		{"lower-better up past the bound", limit{rel: 0.10, lower: true}, steady(100), steady(120), worse},
		{"absolute floor absorbs a relative blow-up near zero", limit{rel: 0.05, floor: 0.01, lower: true}, steady(0.001), steady(0.004), unchanged},
		{"past the floor too", limit{rel: 0.05, floor: 0.01, lower: true}, steady(0.001), steady(0.02), worse},
		{"own spread wider than the bound", limit{rel: 0.10}, noisy(100), steady(130), unresolved},
		{"after side's spread counts as well", limit{rel: 0.10}, steady(100), noisy(130), unresolved},
		{"a zero bound calls any move", limit{rel: 0, lower: true}, steady(0), steady(1), worse},
		{"a zero bound holds when nothing moved", limit{rel: 0, lower: true}, steady(0), steady(0), unchanged},
		{"single runs have no spread to object with", limit{rel: 0.10}, []float64{100}, []float64{150}, better},
		{"unbounded: a move inside the runs' own spread", limit{unbounded: true}, noisy(100), noisy(110), unchanged},
		{"unbounded: a move past it", limit{unbounded: true, lower: true}, steady(100), steady(90), better},
		{"unbounded: single runs cannot judge a move", limit{unbounded: true}, []float64{100}, []float64{101}, unresolved},
		{"unbounded: single runs that agree", limit{unbounded: true}, []float64{100}, []float64{100}, unchanged},
	}
	for _, c := range cases {
		if _, got := c.l.compare(c.before, c.after); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
