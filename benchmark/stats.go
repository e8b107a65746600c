package main

import (
	"errors"
	"math"
	"sort"
)

// latHist holds exact per-operation latencies in virtual nanoseconds:
// one counter per distinct value below latDense, and the raw values at
// or above it. Nothing is bucketed, so a percentile read from it is the
// value of an actual sample and compares exactly across commits.
type latHist struct {
	dense []uint32 // dense[v] = samples equal to v, for v < latDense
	big   []int64  // samples >= latDense
	n     int64
}

// latDense is 1ms: above every PM and RPC operation the model prices,
// below only slow-tier stalls and maintenance interference.
const latDense = 1 << 20

func newLatHist() *latHist { return &latHist{dense: make([]uint32, latDense)} }

func (h *latHist) add(ns int64) {
	h.n++
	if ns >= 0 && ns < latDense {
		h.dense[ns]++
		return
	}
	h.big = append(h.big, ns)
}

func (h *latHist) merge(o *latHist) {
	for v, c := range o.dense {
		h.dense[v] += c
	}
	h.big = append(h.big, o.big...)
	h.n += o.n
}

// errFewSamples is returned for a percentile that fewer than
// minBeyond samples exceed: such a tail value does not repeat from run
// to run and must not be printed as if it did.
var errFewSamples = errors.New("fewer than 10 samples beyond the percentile")

const minBeyond = 10

// quantile returns the ceil(q*n)-th smallest sample. For q > 0.5 it
// refuses unless at least minBeyond samples lie beyond that rank.
func (h *latHist) quantile(q float64) (int64, error) {
	if h.n == 0 {
		return 0, errFewSamples
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && h.n-rank < minBeyond {
		return 0, errFewSamples
	}
	var seen int64
	for v, c := range h.dense {
		seen += int64(c)
		if seen >= rank {
			return int64(v), nil
		}
	}
	sort.Slice(h.big, func(i, j int) bool { return h.big[i] < h.big[j] })
	return h.big[rank-seen-1], nil
}

// batch is one equal slice of a client's measured phase.
type batch struct {
	ops    int64
	hostNS int64
}

// medianKops is the median over batches of operations per host second,
// in thousands. A median ignores the batches a GC cycle or a noisy
// neighbour stretched, which a mean over the whole phase cannot.
func medianKops(batches []batch) float64 {
	rates := make([]float64, 0, len(batches))
	for _, b := range batches {
		if b.hostNS > 0 {
			rates = append(rates, float64(b.ops)/float64(b.hostNS)*1e6)
		}
	}
	return median(rates)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) does (the exclusive method,
// extrapolating past the ends of short inputs), because that is what
// the driver's spread check computes. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median;
// 0 when v has fewer than two values or a zero median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// verdict is the outcome of comparing one metric on two sides.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// limit is how far a metric may move before the move counts: a share
// of the base median, or an absolute floor if that is larger (the
// floor keeps a metric near zero, such as allocations per operation,
// from failing on a change nobody could measure).
type limit struct {
	rel   float64
	floor float64
	lower bool // lower values are better
	// unbounded marks a metric with no fixed bound (the per-layer rows):
	// a move counts when it exceeds the runs' own spread.
	unbounded bool
}

// compare judges after against before. Each side is the metric's
// values over that side's runs. A move within the limit is unchanged;
// a larger one is better or worse by the metric's direction — unless
// either side's own run-to-run spread exceeds the limit, in which case
// the runs cannot resolve a move of that size and the verdict says so.
func (l limit) compare(before, after []float64) (delta float64, v verdict) {
	mb, ma := median(before), median(after)
	delta = ma - mb
	allowed := math.Max(l.rel*math.Abs(mb), l.floor)
	noise := math.Max(spread(before)*math.Abs(mb), spread(after)*math.Abs(ma))
	switch {
	case l.unbounded && delta != 0 && (len(before) < 2 || len(after) < 2):
		return delta, unresolved // one run a side: no spread to judge a move against
	case l.unbounded:
		allowed = noise
	case noise > allowed:
		return delta, unresolved
	}
	switch {
	case math.Abs(delta) <= allowed:
		return delta, unchanged
	case (delta < 0) == l.lower:
		return delta, better
	}
	return delta, worse
}
