package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/benchmark/tracefs"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must say the same thing.
func TestManifestMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Command) != 2 || man.Command[0] != "bash" || man.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", man.Command)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", man.Paths)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", man.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, decls []decl, defs []metric, bounded bool) {
		if len(decls) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(decls), len(defs))
		}
		for i, d := range decls {
			m := defs[i]
			checkName(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			better := "higher"
			if m.lower {
				better = "lower"
			}
			if d.Name != m.name || d.Unit != m.unit || d.Better != better {
				t.Errorf("%s %d: declared %s [%s] %s, program has %s [%s] %s", kind, i, d.Name, d.Unit, d.Better, m.name, m.unit, better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound declared %v, program has %v (must be in (0, 0.25])", d.Name, d.Bound, m.bound)
			case !bounded && (d.Bound != nil || m.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	compare("end_to_end", man.EndToEnd, endToEnd, true)
	compare("per_layer", man.PerLayer, perLayer, false)
	if len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(man.EndToEnd), len(man.PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// Every workload, at a size that takes a second or two, runs clean and
// keeps its layers where README.md says they are. The full-size runs
// are reached only through main.
func TestWorkloadsSmoke(t *testing.T) {
	type shape struct {
		ops                           int64
		pagecache, rpc, vmm, maintain bool
	}
	shapes := map[string]shape{
		"mmap_aged":    {ops: 200_000, vmm: true, maintain: true},
		"posix_aged":   {ops: 20_000},
		"srv_cached":   {ops: 20_000, pagecache: true, rpc: true},
		"maint_tiered": {ops: 20_000, vmm: true, maintain: true},
	}
	for i := range workloads {
		def := &workloads[i]
		sh := shapes[def.name]
		tr := tracefs.New(int(float64(sh.ops)*def.spansPerOp) + 10_000)
		o, err := pass(def, params{seed: 3, ops: sh.ops, tr: tr})
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if o.ops < sh.ops || o.failed != 0 || len(o.fin.problems) != 0 {
			t.Errorf("%s: %d of %d operations attempted, %d failed (first: %v), problems %v",
				def.name, o.ops, sh.ops, o.failed, o.firstErr, o.fin.problems)
		}
		if tr.Dropped() != 0 {
			t.Errorf("%s: tracer sized for %.1f spans per operation dropped %d", def.name, def.spansPerOp, tr.Dropped())
		}
		entered := func(l tracefs.Layer) bool { return o.sum.Layers[l].Calls > 0 }
		for _, c := range []struct {
			layer tracefs.Layer
			want  bool
		}{
			{tracefs.Pagecache, sh.pagecache}, {tracefs.Fileserver, sh.rpc}, {tracefs.Winefs, true},
			{tracefs.VMM, sh.vmm}, {tracefs.Maint, sh.maintain},
		} {
			if entered(c.layer) != c.want {
				t.Errorf("%s: layer %s entered = %v, want %v", def.name, c.layer, entered(c.layer), c.want)
			}
		}
		if sh.rpc && o.sum.Linked == 0 {
			t.Errorf("%s: no server-side span was linked under an RPC", def.name)
		}
		if o.fin.hugeCoveragePct <= 0 || o.fin.alignedFreePct <= 0 || o.user <= 0 || o.makespan <= 0 {
			t.Errorf("%s: an end-to-end input is zero: coverage %v, aligned free %v, user bytes %d, makespan %d",
				def.name, o.fin.hugeCoveragePct, o.fin.alignedFreePct, o.user, o.makespan)
		}
	}
}

func TestOracle(t *testing.T) {
	o := newOracle(fileKey(1, 2), 64, 4096, 0)
	buf := make([]byte, 256)
	if o.fill(buf, 128); !o.check(buf, 128) || !checkPat(buf, 0, 128, 0) {
		t.Error("never-written units must read as zeros")
	}
	o.bump(192, 64)
	o.fill(buf, 128)
	if !o.check(buf, 128) {
		t.Error("fill and check disagree")
	}
	if checkPat(buf[64:128], o.key, 192, 0) || !checkPat(buf[64:128], o.key, 192, 1) {
		t.Error("the bumped unit must hold version 1, its neighbours version 0")
	}
	buf[70] ^= 1
	if o.check(buf, 128) {
		t.Error("a flipped bit passed the check")
	}
	// Versions wrap past 255 to 1, never to 0.
	for i := 0; i < 256; i++ {
		o.bump(0, 64)
	}
	if o.ver[0] != 1 {
		t.Errorf("version after 256 bumps = %d, want 1", o.ver[0])
	}
	// Growth: the unit the old end lay in keeps its version.
	g := newOracle(7, blockSize, 6144, 1)
	g.bump(0, blockSize)
	g.grow(12288, 1)
	if len(g.ver) != 3 || g.ver[0] != 2 || g.ver[1] != 1 || g.ver[2] != 1 {
		t.Errorf("versions after growth = %v", g.ver)
	}

	s := newSharedOracle(9, 4)
	page := make([]byte, blockSize)
	fillPat(page, s.key, 2*blockSize, 5)
	if !s.checkWindow(page, 2, 4, 6) || s.checkWindow(page, 2, 6, 9) || s.checkWindow(page, 1, 4, 6) {
		t.Error("checkWindow must accept exactly the versions in the window, at the right block")
	}
}
