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
func pt(threads int, exact, tol map[string]float64) *Report {
	return &Report{Bench: "t/v1", Config: map[string]float64{"Seed": 42},
		Points: []*Point{{Labels: map[string]string{"Case": "c"}, Threads: threads, Exact: exact, Toleranced: tol}}}
}

func TestCheckFieldRules(t *testing.T) {
	type ints = map[string]float64
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
		{"exact float off in the last place", pt(0, ints{"GBs": 1.9900000000000002}, nil), pt(0, ints{"GBs": 1.99}, nil), "GBs"},
		{"exact still held past the strict regime", pt(64, ints{"Ops": 8}, nil), pt(64, ints{"Ops": 7}, nil), "Ops"},
		{"toleranced +24%", pt(0, nil, floats{"SpanNS": 124}), pt(0, nil, floats{"SpanNS": 100}), ""},
		{"toleranced -24%", pt(0, nil, floats{"SpanNS": 76}), pt(0, nil, floats{"SpanNS": 100}), ""},
		{"toleranced +26%", pt(0, nil, floats{"SpanNS": 126}), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced -26%", pt(0, nil, floats{"SpanNS": 74}), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced 0 vs 0", pt(0, nil, floats{"SpanNS": 0}), pt(0, nil, floats{"SpanNS": 0}), ""},
		{"toleranced 0 not in the baseline", pt(0, nil, floats{"SpanNS": 0}), pt(0, nil, nil), "SpanNS"},
		{"toleranced 0 baseline, non-zero run", pt(0, nil, floats{"SpanNS": 5}), pt(0, nil, floats{"SpanNS": 0}), "SpanNS"},
		{"toleranced missing in run", pt(0, nil, nil), pt(0, nil, floats{"SpanNS": 100}), "SpanNS"},
		{"toleranced missing past 16 threads", pt(32, nil, nil), pt(32, nil, floats{"SpanNS": 100}), "SpanNS"},
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
	// A baseline recorded before its mode packed an Info field prints "-"
	// where a run prints a value.
	run.Points[0].Info["Client.Sessions"] = 4
	if diffs, err := Check(run, base, sweepClasses); err != nil || len(diffs) != 1 || diffs[0].Name != "Client.Sessions" {
		t.Errorf("info field the baseline lacks: %v %v", diffs, err)
	}
	if diffs, err := Check(base, run, sweepClasses); err != nil || len(diffs) != 1 || diffs[0].Name != "Client.Sessions" {
		t.Errorf("info field the run lacks: %v %v", diffs, err)
	}
}

func TestCheckShapeMismatchesAreErrors(t *testing.T) {
	base := pt(4, map[string]float64{"Ops": 1}, nil)
	for name, mutate := range map[string]func(r *Report){
		"tag":          func(r *Report) { r.Bench = "u/v1" },
		"config value": func(r *Report) { r.Config = map[string]float64{"Seed": 43} },
		"config key":   func(r *Report) { r.Config = map[string]float64{"Seed": 42, "CPUs": 0} },
		"label":        func(r *Report) { r.Points[0].Labels = map[string]string{"Case": "d"} },
		"threads":      func(r *Report) { r.Points[0].Threads = 8 },
		"point count":  func(r *Report) { r.Points = append(r.Points, r.Points[0]) },
	} {
		run := pt(4, map[string]float64{"Ops": 2}, nil)
		mutate(run)
		if diffs, err := Check(run, base, sweepClasses); err == nil {
			t.Errorf("%s mismatch: no error (diffs %v)", name, diffs)
		}
	}
}

// TestFinishFailsOnAClaim holds Finish's exit path: a report that breaks
// a claim, or lacks a field a claim reads, is an error naming the claim,
// and a report whose schema has no claims passes.
func TestFinishFailsOnAClaim(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		doctor     func(r *Report)
		want       string // in the error; "" wants none
	}{
		{"a claim fails", "BENCH_cache.json", func(r *Report) { r.Points[1].Toleranced["ReadSpeedup"] = 4.9 },
			`"cached re-reads are ≥5× cheaper than uncached ones" (4.9 >= 5)`},
		{"a claim reads a missing field", "BENCH_cache.json", func(r *Report) { delete(r.Points[2].Info, "HotHitRatio") },
			`"≥95% of hot-set re-reads hit through the scans" (no HotHitRatio@Variant=HotScan in cache/v1)`},
		{"a schema without claims", "BENCH_server.json", func(*Report) {}, ""},
	} {
		rep, err := Load("../../" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		tc.doctor(rep)
		err = Finish(rep, "", "", nil)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Finish = %v; want an error holding %q, or none for \"\"", tc.name, err, tc.want)
		}
	}
}

// TestFinishHoldsARunToItsSelection checks runs of some of the paper's
// figures against the committed report of all of them: each is held to
// the baseline's points of the figures it selected, so a selected figure
// that gains, loses or never packs a point is still an error.
func TestFinishHoldsARunToItsSelection(t *testing.T) {
	const baseline = "../../BENCH_paper.json"
	base, err := Load(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// figures builds a run from the baseline's points of figs.
	figures := func(figs string) *Report { return base.Only(map[string]string{"Figure": figs}) }
	for _, tc := range []struct {
		name, selected string
		run            *Report
		wantErr        bool
	}{
		{"one figure", "fig2", figures("fig2"), false},
		{"-run table2 packs fig7", "fig7", figures("fig7"), false},
		{"a selected figure lacks a point", "fig7", func() *Report { r := figures("fig7"); r.Points = r.Points[1:]; return r }(), true},
		{"a selected figure gains a point", "fig2|fig7", func() *Report {
			r := figures("fig2|fig7")
			extra := *r.Points[len(r.Points)-1]
			extra.Labels = map[string]string{"Figure": "fig7", "FS": "PMFS"}
			r.Points = append(r.Points, &extra)
			return r
		}(), true},
		{"a selected figure packs nothing", "fig2|fig7", figures("fig2"), true},
	} {
		err := Finish(tc.run, "", baseline, map[string]string{"Figure": tc.selected})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err %v; want an error: %v", tc.name, err, tc.wantErr)
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

// TestClassPins is the gate-strength ledger: for each report, every field
// it packs and the class it is held to; the seven mode reports' classes
// are transcribed from the per-mode checkers this package replaced. Under
// a "<prefix>.*" key every field with that prefix — each perf counter, and
// each field a committed baseline carries — takes that class unless the
// same report pins it separately. Loosening (or tightening) a gate has to
// change this table.
func TestClassPins(t *testing.T) {
	const e, tol, place, info = Exact, Toleranced, Placement, Info
	pins := map[string]map[string]Class{
		"server-mix/v1": {
			"ClientOps": e, "ServerOps": e, "Latency.Count": e,
			"SpanNS": tol, "OpsPerSec": tol, "Latency.MeanNS": tol, "Latency.P50NS": tol, "Latency.P99NS": tol,
			"Latency.P90NS": info, "Latency.MaxNS": info, "Sessions": info, "HitRatio": info, "Cache.*": info,
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
			"HotHitRatio": info, "Cache.*": info,
			"Counters.*": e, "Counters.LockWaitNS": tol,
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
			"SetupNS": tol, "DefragNS": tol, "BaselineBW": e, "ContendedBW": e, "SlowdownPct": e,
			"RecoveredCoverage": info,
			"Counters.*":        e, "Counters.LockWaitNS": tol,
		},
		// Figure 9's Filebench and pgbench and Figure 10 above one thread
		// move by up to 24% between runs of one seed; everything else
		// repeats bit for bit.
		"paper/v1": {
			"GBs": e, "GBs.*": e, "TotalUS": e, "CopyUS": e, "FaultUS": e, "AlignedFreePct": e,
			"MedianNS": e, "P90NS": e, "P99NS": e, "MedianRatio": info,
			"OpsPerSec.*": e, "Faults.*": e, "VsExt4.*": info, "VsWineFS.*": info,
			"Filebench.*": info, "PgbenchTPS": info, "WTFill": e, "WTRead": e,
			"KIOPS": e, "ContendedKIOPS": info,
			"RecoveryNS": e, "SmallNS": e, "LargeNS": e,
			"AlignedFree": e, "RemoteFrac": e, "WriteNS": e, "CrashStates": e, "Failures": e,
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
		// Every field a committed baseline carries must be pinned, by name
		// or by prefix, to its class.
		files, _ := filepath.Glob("../../BENCH_*.json")
		for _, f := range files {
			rep, err := Load(f)
			if err != nil || rep.Bench != tag {
				continue
			}
			for _, p := range rep.Points {
				for _, name := range append(append(sortedKeys(p.Exact), sortedKeys(p.Toleranced)...), sortedKeys(p.Info)...) {
					want, ok := fields[name]
					for key, c := range fields {
						if prefix, all := strings.CutSuffix(key, "*"); !ok && all && strings.HasPrefix(name, prefix) {
							want, ok = c, true
						}
					}
					if !ok {
						t.Errorf("%s: %s carries unpinned field %s", tag, f, name)
					} else if got := cl.Of(name); got != want {
						t.Errorf("%s: %s carries %s of class %s, pinned %s", tag, f, name, got, want)
					}
				}
			}
		}
	}
}
