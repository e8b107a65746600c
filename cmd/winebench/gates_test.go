package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// TestEveryClaimHolds holds each committed BENCH_*.json to every claim
// about its schema, and every claim to some committed report. Then it runs
// the three contention-free benches in-process through bench.Finish, so
// plain `go test` catches a broken claim or counter drift without make,
// and holds each to its committed report byte for byte: one goroutine
// runs each, so a baseline that is not what its mode packs is stale, even
// where its Toleranced fields are within tolerance.
func TestEveryClaimHolds(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]bool{}
	for _, f := range files {
		rep, err := bench.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		tags[rep.Bench] = true
		t.Run(filepath.Base(f), func(t *testing.T) {
			for _, v := range rep.Verdicts(nil) {
				if !v.Holds {
					t.Errorf("%s: %s", v.Shows, v)
				}
			}
		})
	}
	for _, c := range bench.Claims {
		if !tags[c.Schema] {
			t.Errorf("%s: no committed report is %s", c.Shows, c.Schema)
		}
	}
	for _, m := range modes {
		if !slices.Contains([]string{"mmap", "defrag", "tier"}, m.name) {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(options{cpus: 8, clients: 8, seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			base := "../../BENCH_" + m.name + ".json"
			if err := bench.Finish(rep, "", base, nil); err != nil {
				t.Error(err)
			}
			got, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("BENCH_%s.json is not what -%s packs: re-record it with make bench-%s's line, -json in place of -check-against",
					m.name, m.name, m.name)
			}
		})
	}
}

// TestRunRejectsUnknownNames holds -run to the names of experiments.Runs:
// a misspelt or unknown name is an error that lists the valid ones, not a
// run of nothing that exits 0.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, list := range []string{"fig11", "Fig1", "fig1,fig11", "", "fig1 ,, fig2"} {
		if _, err := selectRuns(list); err == nil || !strings.Contains(err.Error(), "crashmonkey") {
			t.Errorf("-run %q: error %v, want one listing the valid names", list, err)
		}
	}
	for list, want := range map[string]int{"all": len(experiments.Runs), "fig1": 1, " fig7 , table2": 2, "numa,all": len(experiments.Runs)} {
		if runs, err := selectRuns(list); err != nil || len(runs) != want {
			t.Errorf("-run %q: %d runs, error %v; want %d", list, len(runs), err, want)
		}
	}
}
