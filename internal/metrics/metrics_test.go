package metrics

import (
	"bytes"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/perf"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"PageFaults":   "page_faults",
		"TLBMisses":    "tlb_misses",
		"LLCHits":      "llc_hits",
		"PageWalkNS":   "page_walk_ns",
		"PMWriteBytes": "pm_write_bytes",
		"GCWork":       "gc_work",
		"Syscalls":     "syscalls",
		"FaultNS":      "fault_ns",
		"X":            "x",
	}
	for in, want := range cases {
		if got := SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func() []Family {
		return []Family{
			Counter("winefs_ops_total", "Total ops.", 42),
			Gauge("winefs_sessions_active", "Live sessions.", 3),
			{
				Name: "winefs_latency_ns",
				Type: "summary",
				Samples: []Sample{
					{Labels: map[string]string{"quantile": "0.5"}, Value: 120},
					{Suffix: "_count", Value: 10},
				},
			},
		}
	}))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP winefs_ops_total Total ops.\n",
		"# TYPE winefs_ops_total counter\n",
		"winefs_ops_total 42\n",
		"# TYPE winefs_sessions_active gauge\n",
		"winefs_sessions_active 3\n",
		"# TYPE winefs_latency_ns summary\n",
		"winefs_latency_ns{quantile=\"0.5\"} 120\n",
		"winefs_latency_ns_count 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestCountersFamiliesExhaustiveAndExact: every perf.Counters field must be
// exported, with exactly the in-process value — the acceptance criterion for
// the winefsd /metrics endpoint.
func TestCountersFamiliesExhaustiveAndExact(t *testing.T) {
	c := &perf.Counters{}
	cv := reflect.ValueOf(c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(1000 + i))
	}
	fams := CountersFamilies("winefs", c)
	if len(fams) != cv.NumField() {
		t.Fatalf("exported %d families for %d counter fields", len(fams), cv.NumField())
	}
	byName := map[string]float64{}
	for _, f := range fams {
		if f.Type != "counter" || !strings.HasSuffix(f.Name, "_total") || !strings.HasPrefix(f.Name, "winefs_") {
			t.Errorf("bad counter family %q (%s)", f.Name, f.Type)
		}
		if len(f.Samples) != 1 {
			t.Fatalf("%s: %d samples", f.Name, len(f.Samples))
		}
		byName[f.Name] = f.Samples[0].Value
	}
	ct := cv.Type()
	for i := 0; i < cv.NumField(); i++ {
		name := "winefs_" + SnakeCase(ct.Field(i).Name) + "_total"
		if got, ok := byName[name]; !ok {
			t.Errorf("field %s not exported as %s", ct.Field(i).Name, name)
		} else if got != float64(1000+i) {
			t.Errorf("%s = %v, want %d", name, got, 1000+i)
		}
	}
}

// TestSubsystemFamiliesPage pins the canonical families winefsd's /metrics
// page carries (vmm_*, defrag_*, and tier_*, slow_*, alloc_spill_*), with
// every counter set to a distinct value, to testdata/families.prom: the
// page the three per-subsystem functions SubsystemFamilies replaced wrote.
// A counter added under one of the prefixes changes the page on purpose;
// the file is then rewritten from this test's output.
func TestSubsystemFamiliesPage(t *testing.T) {
	c := &perf.Counters{}
	cv := reflect.ValueOf(c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(1000 + i))
	}
	reg := NewRegistry()
	reg.Register(CollectorFunc(func() []Family {
		return SubsystemFamilies("Zero-copy mapping subsystem", c, "VMM")
	}))
	reg.Register(CollectorFunc(func() []Family {
		return SubsystemFamilies("Online defragmenter", c, "Defrag")
	}))
	reg.Register(CollectorFunc(func() []Family {
		return SubsystemFamilies("Tiered storage", c, "Tier", "Slow", "AllocSpill")
	}))
	var got bytes.Buffer
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/families.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("families page differs from testdata/families.prom; got:\n%s", got.Bytes())
	}
}

func TestSummaryFamily(t *testing.T) {
	f := SummaryFamily("lat_ns", "Request latency.", perf.LatencySummary{
		Count: 100, MeanNS: 50, P50NS: 40, P90NS: 80, P99NS: 99, MaxNS: 200,
	})
	var buf bytes.Buffer
	if err := writeFamily(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_ns{quantile="0.5"} 40`,
		`lat_ns{quantile="0.99"} 99`,
		`lat_ns{quantile="1"} 200`,
		"lat_ns_sum 5000",
		"lat_ns_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(5); got != "5" {
		t.Errorf("formatValue(5) = %q", got)
	}
	if got := formatValue(2.5); got != "2.5" {
		t.Errorf("formatValue(2.5) = %q", got)
	}
	// Large int64 counters must render without float rounding artifacts.
	big := float64(1 << 50)
	if _, err := strconv.ParseFloat(formatValue(big), 64); err != nil {
		t.Errorf("formatValue(2^50) = %q: %v", formatValue(big), err)
	}
}
