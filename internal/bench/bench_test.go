package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// sweepClasses is a synthetic class list exercising all four classes.
var sweepClasses = Classes{
	Toleranced: []string{"SpanNS", "LockWaitNS"},
	Placement:  []string{"Counters.AllocSteals"},
	Info:       []string{"Note", "Client."},
}

// pt builds a one-point report.
func pt(threads int, exact map[string]int64, tol map[string]float64) *Report {
	return &Report{Bench: "t/v1", Config: map[string]float64{"Seed": 42},
		Points: []*Point{{Labels: map[string]string{"Case": "c"}, Threads: threads, Exact: exact, Toleranced: tol}}}
}

func TestCheckFieldRules(t *testing.T) {
	type ints = map[string]int64
	type floats = map[string]float64
	for _, tc := range []struct {
		name      string
		run, base *Report
		want      string // name of the one field flagged, "" for a clean check
	}{
		{"exact equal", pt(0, ints{"Ops": 7}, nil), pt(0, ints{"Ops": 7}, nil), ""},
		{"exact off by one", pt(0, ints{"Ops": 8}, nil), pt(0, ints{"Ops": 7}, nil), "Ops"},
		{"exact missing in run is 0", pt(0, nil, nil), pt(0, ints{"Ops": 7}, nil), "Ops"},
		{"exact missing in base is 0", pt(0, ints{"Ops": 7}, nil), pt(0, nil, nil), "Ops"},
		{"exact explicit 0 equals missing", pt(0, ints{"Ops": 0}, nil), pt(0, nil, nil), ""},
		{"exact still held past the strict regime", pt(64, ints{"Ops": 8}, nil), pt(64, ints{"Ops": 7}, nil), "Ops"},
		{"toleranced +24%", pt(0, nil, floats{"SpanNS": 124}), pt(0, nil, floats{"SpanNS": 100}), ""},
		{"toleranced -24%", pt(0, nil, floats{"SpanNS": 76}), pt(0, nil, floats{"SpanNS": 100}), ""},
		{"toleranced +26%", pt(0, nil, floats{"SpanNS": 126}), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced -26%", pt(0, nil, floats{"SpanNS": 74}), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced 0 vs 0", pt(0, nil, floats{"SpanNS": 0}), pt(0, nil, nil), ""},
		{"toleranced 0 baseline, non-zero run", pt(0, nil, floats{"SpanNS": 5}), pt(0, nil, floats{"SpanNS": 0}), "SpanNS"},
		{"toleranced missing in run is 0", pt(0, nil, nil), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced skipped past 16 threads", pt(32, nil, floats{"SpanNS": 900}), pt(32, nil, floats{"SpanNS": 100}), ""},
		{"toleranced held at 16 threads", pt(16, nil, floats{"SpanNS": 900}), pt(16, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"lock wait under the floor, thread sweep", pt(2, nil, floats{"LockWaitNS": 19000}), pt(2, nil, floats{"LockWaitNS": 400}), ""},
		{"lock wait over the floor on one side", pt(2, nil, floats{"LockWaitNS": 21000}), pt(2, nil, floats{"LockWaitNS": 400}), "LockWaitNS"},
		{"lock wait floor needs a thread sweep", pt(0, nil, floats{"LockWaitNS": 19000}), pt(0, nil, floats{"LockWaitNS": 400}), "LockWaitNS"},
		{"placement at the count floor", pt(4, nil, floats{"Counters.AllocSteals": 16}), pt(4, nil, floats{"Counters.AllocSteals": 3}), ""},
		{"placement over the count floor", pt(4, nil, floats{"Counters.AllocSteals": 17}), pt(4, nil, floats{"Counters.AllocSteals": 3}), "Counters.AllocSteals"},
		{"placement within tolerance", pt(4, nil, floats{"Counters.AllocSteals": 120}), pt(4, nil, floats{"Counters.AllocSteals": 100}), ""},
		{"placement skipped past 16 threads", pt(32, nil, floats{"Counters.AllocSteals": 900}), pt(32, nil, floats{"Counters.AllocSteals": 100}), ""},
	} {
		diffs, err := Check(tc.run, tc.base, sweepClasses)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var got []string
		for _, d := range diffs {
			got = append(got, d.Name)
		}
		if want := strings.Fields(tc.want); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: flagged %v, want %v", tc.name, got, want)
		}
	}

	run, base := pt(0, nil, nil), pt(0, nil, nil)
	run.Points[0].Info, base.Points[0].Info = map[string]float64{"Note": 1}, map[string]float64{"Note": 99}
	if diffs, err := Check(run, base, sweepClasses); err != nil || len(diffs) != 0 {
		t.Errorf("info fields compared: %v %v", diffs, err)
	}
}

func TestCheckShapeMismatchesAreErrors(t *testing.T) {
	base := pt(4, map[string]int64{"Ops": 1}, nil)
	for name, mutate := range map[string]func(r *Report){
		"tag":          func(r *Report) { r.Bench = "u/v1" },
		"config value": func(r *Report) { r.Config = map[string]float64{"Seed": 43} },
		"config key":   func(r *Report) { r.Config = map[string]float64{"Seed": 42, "CPUs": 0} },
		"label":        func(r *Report) { r.Points[0].Labels = map[string]string{"Case": "d"} },
		"threads":      func(r *Report) { r.Points[0].Threads = 8 },
		"point count":  func(r *Report) { r.Points = append(r.Points, r.Points[0]) },
	} {
		run := pt(4, map[string]int64{"Ops": 2}, nil)
		mutate(run)
		if diffs, err := Check(run, base, sweepClasses); err == nil {
			t.Errorf("%s mismatch: no error (diffs %v)", name, diffs)
		}
	}
}

func TestPackEncodeDecodeCheck(t *testing.T) {
	rep := New("scaling/v1", map[string]float64{"CPUs": 128, "Seed": 42})
	p := rep.Point(map[string]string{"Case": "shared-read", "Transport": "local"}, 8)
	p.Ints(map[string]int64{"Ops": 1616, "Bytes": 0, "SpanNS": 721963, "LockWaitNS": 1444252})
	p.Floats(map[string]float64{"OpsPerSec": 2238341.854083935})
	p.AddCounters("Counters.", &perf.Counters{CopyNS: 9, LockWaitNS: 1444252, AllocSteals: 20})
	rep.Point(nil, 0).Ints(map[string]int64{"Ops": 1})

	if got := p.Exact; len(got) != 3 || got["Ops"] != 1616 || got["Counters.CopyNS"] != 9 {
		t.Errorf("Exact = %v: want Ops, the explicit zero Bytes and the one non-zero exact counter", got)
	}
	if _, ok := p.Exact["Bytes"]; !ok {
		t.Error("explicitly packed zero dropped")
	}
	if p.Toleranced["Counters.AllocSteals"] != 20 || p.Toleranced["SpanNS"] != 721963 || p.Info["Counters.LockWaitNS"] != 1444252 {
		t.Errorf("misfiled: Toleranced %v Info %v", p.Toleranced, p.Info)
	}

	enc, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs, err := Check(back, rep, known[rep.Bench]); err != nil || len(diffs) != 0 {
		t.Errorf("round trip not clean: %v %v", diffs, err)
	}
	if again, _ := back.Encode(); !bytes.Equal(again, enc) {
		t.Errorf("encoding not byte-stable:\n%s\nvs\n%s", enc, again)
	}

	// The parent's schema (top-level CPUs, typed points) must not load.
	old := filepath.Join(t.TempDir(), "old.json")
	os.WriteFile(old, []byte(`{"Bench":"scaling/v1","CPUs":128,"Points":[{"Case":"x"}]}`), 0o644)
	if _, err := Load(old); err == nil {
		t.Error("old-schema file loaded")
	}
}

// TestCommittedBaselinesLoad holds every committed BENCH_*.json to the
// schema: it loads, carries a known tag, is in canonical encoding, and
// checks clean against itself.
func TestCommittedBaselinesLoad(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) != len(known) {
		t.Fatalf("found %d BENCH_*.json (%v), want one per known tag (%d)", len(files), err, len(known))
	}
	seen := map[string]bool{}
	for _, f := range files {
		rep, err := Load(f)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		cl, ok := known[rep.Bench]
		if !ok || seen[rep.Bench] {
			t.Errorf("%s: tag %q unknown or repeated", f, rep.Bench)
		}
		seen[rep.Bench] = true
		if diffs, err := Check(rep, rep, cl); err != nil || len(diffs) != 0 {
			t.Errorf("%s vs itself: %v %v", f, diffs, err)
		}
		raw, _ := os.ReadFile(f)
		if enc, err := rep.Encode(); err != nil || !bytes.Equal(enc, raw) {
			t.Errorf("%s is not in canonical encoding (%v)", f, err)
		}
		for _, p := range rep.Points {
			for name := range p.Exact {
				if c := cl.Of(name); c != Exact {
					t.Errorf("%s: %s is filed Exact but its class is %s", f, name, c)
				}
			}
			for name := range p.Toleranced {
				if c := cl.Of(name); c != Toleranced && c != Placement {
					t.Errorf("%s: %s is filed Toleranced but its class is %s", f, name, c)
				}
			}
			for name := range p.Info {
				if c := cl.Of(name); c != Info {
					t.Errorf("%s: %s is filed Info but its class is %s", f, name, c)
				}
			}
		}
	}
}

// TestClassPins is the gate-strength ledger: for each of the seven
// reports, every field it packs and the class it is held to, transcribed
// from the seven per-mode checkers this package replaced. Under a
// "<prefix>.*" key every perf counter takes that class unless the same
// report pins "<prefix>.<Counter>" separately. Loosening (or tightening)
// a gate has to change this table.
func TestClassPins(t *testing.T) {
	const e, tol, place, info = Exact, Toleranced, Placement, Info
	pins := map[string]map[string]Class{
		"server-mix/v1": {
			"ClientOps": e, "ServerOps": e, "Latency.Count": e,
			"SpanNS": tol, "OpsPerSec": tol, "Latency.MeanNS": tol, "Latency.P50NS": tol, "Latency.P99NS": tol,
			"Latency.P90NS": info, "Latency.MaxNS": info,
			"Counters.*": e, "Counters.LockWaitNS": tol,
			"ClientCounters.*": info,
		},
		"server-mix-replicated/v1": {
			"ClientOps": e, "Resyncs": e,
			"RecordsLogged": tol, "BytesLogged": tol,
			"PlainSpanNS": tol, "ReplicatedSpanNS": tol, "PlainSumNS": tol, "ReplicatedSumNS": tol,
			"OverheadPct": info,
		},
		"scaling/v1": {
			"Ops": e, "Bytes": e,
			"SpanNS": tol, "OpsPerSec": tol, "LockWaitNS": tol,
			"Counters.*": e, "Counters.AllocSteals": place, "Counters.AllocSplits": place,
			"Counters.LockWaitNS": info,
		},
		"cache/v1": {
			"Reads": e, "ReadBytes": e, "BytesWritten": e, "ServerOps": e,
			"ReadNS": tol, "PopulateNS": tol, "RewriteNS": tol, "ReadNSPerRead": tol, "ReadSpeedup": tol,
			"HitRatio": info,
			"HotReads": e, "HotHits": e, "ScanReads": e, "CachePages": e, "Promotions": e, "Demotions": e,
			"HotHitRatio": info,
			"Counters.*":  e, "Counters.LockWaitNS": tol,
		},
		"mmap/v1": {
			"Reads": e, "ReadBytes": e, "HugeChunks": e, "TotalChunks": e,
			"SetupNS": tol, "MapNS": tol, "SweepNS": tol, "WriteNS": tol, "NSPerRead": tol,
			"HugeCoverage": info, "AgedSlowdown": info,
			"Counters.*": e, "Counters.LockWaitNS": tol,
		},
		"defrag/v1": {
			"UnagedHuge": e, "UnagedTotal": e, "AgedHuge": e, "AgedTotal": e, "DefragHuge": e, "DefragTotal": e,
			"Passes": e, "MigratedBlocks": e, "Recovered2M": e, "Rewrites": e, "Repromoted": e,
			"SetupNS": tol, "DefragNS": tol, "BaselineBW": tol, "ContendedBW": tol, "SlowdownPct": tol,
			"RecoveredCoverage": info,
			"Counters.*":        e, "Counters.LockWaitNS": tol,
		},
		"tier/v1": {
			"Files": e, "WorkingSetBytes": e, "Ops": e, "Bytes": e, "Passes": e, "PMFreeBlocks": e, "SlowFreeBlocks": e,
			"SetupNS": tol, "SweepNS": tol, "NSPerOp": tol,
			"GBps": info, "Ratio": info,
			"SetupCounters.*": e, "SetupCounters.LockWaitNS": tol,
			"Counters.*": e, "Counters.LockWaitNS": tol,
			"MigrCounters.*": e, "MigrCounters.LockWaitNS": tol,
		},
	}
	if len(pins) != len(known) {
		t.Fatalf("%d reports pinned, %d known", len(pins), len(known))
	}
	for tag, fields := range pins {
		cl, ok := known[tag]
		if !ok {
			t.Errorf("%s: pinned but not known", tag)
			continue
		}
		pinned := map[string]bool{}
		for name, want := range fields {
			prefix, all := strings.CutSuffix(name, "*")
			if !all {
				pinned[name] = true
				if got := cl.Of(name); got != want {
					t.Errorf("%s: %s is %s, pinned %s", tag, name, got, want)
				}
				continue
			}
			for _, f := range new(perf.Counters).Fields() {
				if _, own := fields[prefix+f.Name]; own {
					continue
				}
				pinned[prefix+f.Name] = true
				if got := cl.Of(prefix + f.Name); got != want {
					t.Errorf("%s: %s is %s, pinned %s", tag, prefix+f.Name, got, want)
				}
			}
		}
		// Every class-list entry must name a field the pin table knows.
		for _, entry := range append(append(append([]string{}, cl.Toleranced...), cl.Placement...), cl.Info...) {
			if !pinned[entry] && !(strings.HasSuffix(entry, ".") && fields[entry+"*"] == Info) {
				t.Errorf("%s: class entry %q names no pinned field", tag, entry)
			}
		}
		// Every field a committed baseline carries must be pinned.
		files, _ := filepath.Glob("../../BENCH_*.json")
		for _, f := range files {
			rep, err := Load(f)
			if err != nil || rep.Bench != tag {
				continue
			}
			for _, p := range rep.Points {
				for _, name := range append(append(sortedKeys(p.Exact), sortedKeys(p.Toleranced)...), sortedKeys(p.Info)...) {
					if !pinned[name] {
						t.Errorf("%s: %s carries unpinned field %s", tag, f, name)
					}
				}
			}
		}
	}
}
