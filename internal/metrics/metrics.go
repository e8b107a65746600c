// Package metrics is a small pull-based metric registry rendered in the
// Prometheus text exposition format (version 0.0.4). Collectors are sampled
// at scrape time, so exported values are always a consistent snapshot of
// whatever the collector reads (winefsd collects over fileserver.Server
// Stats(), winebench over a finished run's merged counters) — there is no
// second bookkeeping path that could drift from the in-process perf
// counters.
//
// Counter names derived from perf.Counters fields are the camelCase field
// name converted to snake_case with a `_total` suffix, e.g. TLBMisses →
// <prefix>_tlb_misses_total.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"

	"repro/internal/perf"
)

// Sample is one exposed time-series value.
type Sample struct {
	// Suffix is appended to the family name (e.g. "_count"); usually empty.
	Suffix string
	// Labels render inside {}; may be nil.
	Labels map[string]string
	Value  float64
}

// Family is one named metric with help text, a Prometheus type
// ("counter", "gauge", "summary" or "untyped") and its samples.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Collector produces metric families at scrape time.
type Collector interface {
	Collect() []Family
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Family

// Collect calls f.
func (f CollectorFunc) Collect() []Family { return f() }

// Registry is a set of collectors scraped together.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector to the registry.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// WritePrometheus scrapes every collector and renders the result in the
// Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	for _, c := range cs {
		for _, f := range c.Collect() {
			if err := writeFamily(w, f); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeFamily(w io.Writer, f Family) error {
	typ := f.Type
	if typ == "" {
		typ = "untyped"
	}
	if f.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, typ); err != nil {
		return err
	}
	for _, s := range f.Samples {
		if _, err := fmt.Fprintf(w, "%s%s%s %s\n",
			f.Name, s.Suffix, renderLabels(s.Labels), formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SnakeCase converts a Go exported identifier to a Prometheus-style metric
// name component: TLBMisses → tlb_misses, PageWalkNS → page_walk_ns.
func SnakeCase(name string) string {
	runes := []rune(name)
	var b strings.Builder
	for i, r := range runes {
		if unicode.IsUpper(r) && i > 0 {
			prevLower := unicode.IsLower(runes[i-1])
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if prevLower || (unicode.IsUpper(runes[i-1]) && nextLower) {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// CountersFamilies renders every perf counter as a Prometheus counter
// family named <prefix>_<snake_case_field>_total. Because the field list is
// enumerated by reflection (perf.Counters.Fields), a newly added counter is
// exported automatically — the exporter can never silently lag the struct.
func CountersFamilies(prefix string, c *perf.Counters) []Family {
	fields := c.Fields()
	out := make([]Family, 0, len(fields))
	for _, f := range fields {
		out = append(out, Family{
			Name:    prefix + "_" + SnakeCase(f.Name) + "_total",
			Help:    "perf.Counters." + f.Name + " aggregated across simulated threads.",
			Type:    "counter",
			Samples: []Sample{{Value: float64(f.Value)}},
		})
	}
	return out
}

// SubsystemFamilies renders the perf.Counters fields whose names start
// with one of prefixes as canonically named families: VMMMaps becomes
// vmm_maps_total, DefragPasses defrag_passes_total, AllocSpillExtents
// alloc_spill_extents_total. These are the stable names dashboards alert
// on, independent of whatever prefix the embedding server gives the full
// counter dump (CountersFamilies). subsystem heads each family's help text.
func SubsystemFamilies(subsystem string, c *perf.Counters, prefixes ...string) []Family {
	var out []Family
	for _, f := range c.Fields() {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.Name, p) }) {
			continue
		}
		out = append(out, Family{
			Name:    SnakeCase(f.Name) + "_total",
			Help:    subsystem + ": perf.Counters." + f.Name + ".",
			Type:    "counter",
			Samples: []Sample{{Value: float64(f.Value)}},
		})
	}
	return out
}

// SummaryFamily renders a latency digest as a Prometheus summary with
// quantile labels plus _sum and _count samples. Latencies are virtual
// nanoseconds.
func SummaryFamily(name, help string, s perf.LatencySummary) Family {
	return Family{
		Name: name,
		Help: help,
		Type: "summary",
		Samples: []Sample{
			{Labels: map[string]string{"quantile": "0.5"}, Value: float64(s.P50NS)},
			{Labels: map[string]string{"quantile": "0.9"}, Value: float64(s.P90NS)},
			{Labels: map[string]string{"quantile": "0.99"}, Value: float64(s.P99NS)},
			{Labels: map[string]string{"quantile": "1"}, Value: float64(s.MaxNS)},
			{Suffix: "_sum", Value: s.MeanNS * float64(s.Count)},
			{Suffix: "_count", Value: float64(s.Count)},
		},
	}
}

// Gauge renders one instantaneous value.
func Gauge(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "gauge",
		Samples: []Sample{{Value: v}}}
}

// Counter renders one monotonically increasing value. The name should
// already carry its _total suffix.
func Counter(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "counter",
		Samples: []Sample{{Value: v}}}
}
