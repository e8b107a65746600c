package experiments

import (
	"strconv"
	"testing"

	"repro/internal/bench"
)

func quickCfg() Config {
	return Config{Quick: true, CPUs: 4, Seed: 42}.Defaults()
}

// run packs one experiment at quickCfg into a fresh report.
func run(t *testing.T, exp func(Config, *bench.Report) error) *bench.Report {
	t.Helper()
	cfg := quickCfg()
	rep := NewReport(cfg)
	if err := exp(cfg, rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// value returns field of the first point carrying every label of the
// key, value pairs kv; "Threads" matches Point.Threads.
func value(t *testing.T, rep *bench.Report, field string, kv ...string) float64 {
	t.Helper()
points:
	for _, p := range rep.Points {
		for i := 0; i+1 < len(kv); i += 2 {
			got := p.Labels[kv[i]]
			if kv[i] == "Threads" {
				got = strconv.Itoa(p.Threads)
			}
			if got != kv[i+1] {
				continue points
			}
		}
		for _, m := range []map[string]float64{p.Exact, p.Toleranced, p.Info} {
			if v, ok := m[field]; ok {
				return v
			}
		}
	}
	t.Fatalf("no %s at %v", field, kv)
	return 0
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig1)
	bw := func(name string, aged bool) []float64 {
		var out []float64
		for _, util := range []string{"0", "30", "60", "90"} {
			out = append(out, value(t, rep, "GBs", "FS", name, "Aged", strconv.FormatBool(aged), "Util", util))
		}
		return out
	}
	// Un-aged: file systems keep most of their bandwidth even at 90%.
	// (NOVA's per-inode log blocks fragment even a cleanly filled pool, so
	// it is allowed a deeper dip — see EXPERIMENTS.md.)
	for _, name := range []string{"ext4-DAX", "WineFS"} {
		u := bw(name, false)
		if u[len(u)-1] < 0.7*u[0] {
			t.Errorf("unaged %s lost bandwidth: %v", name, u)
		}
	}
	if u := bw("NOVA", false); u[len(u)-1] < 0.5*u[0] {
		t.Errorf("unaged NOVA collapsed: %v", u)
	}
	// Aged: ext4/NOVA lose ≥25% by 90%; WineFS keeps ≥80%.
	for _, name := range []string{"ext4-DAX", "NOVA"} {
		a := bw(name, true)
		if a[len(a)-1] > 0.75*a[0] {
			t.Errorf("aged %s did not degrade: %v", name, a)
		}
	}
	w := bw("WineFS", true)
	if w[len(w)-1] < 0.8*w[0] {
		t.Errorf("aged WineFS degraded: %v", w)
	}
}

func TestFig2Breakdown(t *testing.T) {
	rep := run(t, Fig2)
	huge := func(field string) float64 { return value(t, rep, field, "Config", "hugepages") }
	base := func(field string) float64 { return value(t, rep, field, "Config", "base pages") }
	// Paper: base pages ~2× slower, two-thirds of time in fault handling.
	slow := base("TotalUS") / huge("TotalUS")
	if slow < 1.5 || slow > 4 {
		t.Errorf("base/huge total = %.2f, want ≈2", slow)
	}
	if base("FaultUS") < base("CopyUS") {
		t.Errorf("base: fault time (%f) should dominate copy (%f)", base("FaultUS"), base("CopyUS"))
	}
	if huge("CopyUS") < huge("FaultUS") {
		t.Errorf("huge: copy time (%f) should dominate fault (%f)", huge("CopyUS"), huge("FaultUS"))
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig3)
	last := map[string]float64{}
	for _, name := range []string{"ext4-DAX", "NOVA", "WineFS"} {
		last[name] = value(t, rep, "AlignedFreePct", "FS", name, "Util", "90")
	}
	if last["WineFS"] < 60 {
		t.Errorf("WineFS aligned free at 90%% = %.1f%%, want high", last["WineFS"])
	}
	if last["NOVA"] > last["WineFS"]/2 {
		t.Errorf("NOVA should be far more fragmented: NOVA=%.1f WineFS=%.1f",
			last["NOVA"], last["WineFS"])
	}
	if last["ext4-DAX"] > last["WineFS"]/2 {
		t.Errorf("ext4 should be far more fragmented: ext4=%.1f WineFS=%.1f",
			last["ext4-DAX"], last["WineFS"])
	}
}

func TestFig4MedianRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig4)
	// Paper: ~10× median gap. Accept a broad band around it.
	if ratio := value(t, rep, "MedianRatio", "Pages", "ratio"); ratio < 3 {
		t.Errorf("base/huge median latency ratio = %.1f, want >> 1 (paper ~10x)", ratio)
	}
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig6)
	gbs := func(panel, name, pattern string) float64 {
		return value(t, rep, "GBs."+pattern, "Panel", panel, "FS", name)
	}
	// Aged mmap: WineFS beats NOVA and ext4-DAX on sequential writes
	// (paper: 2.6× over NOVA).
	wf := gbs("mmap", "WineFS", "seq-write")
	if wf <= gbs("mmap", "NOVA", "seq-write") || wf <= gbs("mmap", "ext4-DAX", "seq-write") {
		t.Errorf("aged mmap seq-write: WineFS=%.2f NOVA=%.2f ext4=%.2f",
			wf, gbs("mmap", "NOVA", "seq-write"), gbs("mmap", "ext4-DAX", "seq-write"))
	}
	// POSIX weak appends: WineFS-relaxed should be at least competitive
	// with ext4-DAX (which pays for costly fsync).
	if w, e := gbs("weak", "WineFS-relaxed", "seq-write"), gbs("weak", "ext4-DAX", "seq-write"); w < e {
		t.Errorf("posix seq-write: WineFS-relaxed=%.3f < ext4=%.3f", w, e)
	}
	// POSIX strong overwrites: WineFS > NOVA (log maintenance).
	if w, n := gbs("strong", "WineFS", "rand-write"), gbs("strong", "NOVA", "rand-write"); w < n {
		t.Errorf("posix rand-write strong: WineFS=%.3f < NOVA=%.3f", w, n)
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig7)
	ops := func(app, name string) float64 { return value(t, rep, "OpsPerSec."+app, "FS", name) }
	// LMDB: WineFS ahead of both NOVA and ext4-DAX (paper: 2× / 54%).
	for _, other := range []string{"NOVA", "ext4-DAX"} {
		if ops("lmdb", "WineFS") <= ops("lmdb", other) {
			t.Errorf("lmdb: WineFS=%.0f <= %s=%.0f", ops("lmdb", "WineFS"), other, ops("lmdb", other))
		}
	}
	// PmemKV: WineFS ahead of ext4-DAX (paper: 70%).
	if ops("pmemkv", "WineFS") <= ops("pmemkv", "ext4-DAX") {
		t.Errorf("pmemkv: WineFS=%.0f <= ext4=%.0f", ops("pmemkv", "WineFS"), ops("pmemkv", "ext4-DAX"))
	}
	// Table 2: WineFS takes the fewest faults on LMDB by a wide margin.
	wf := value(t, rep, "Faults.lmdb-fillseqbatch", "FS", "WineFS")
	for _, other := range []string{"ext4-DAX", "xfs-DAX", "NOVA"} {
		if of := value(t, rep, "Faults.lmdb-fillseqbatch", "FS", other); of < wf*10 {
			t.Errorf("faults lmdb: %s=%.0f vs WineFS=%.0f — want ≥10x", other, of, wf)
		}
	}
}

func TestFig8MedianOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig8)
	wf := value(t, rep, "MedianNS", "FS", "WineFS")
	for _, other := range []string{"NOVA", "xfs-DAX", "ext4-DAX"} {
		if m := value(t, rep, "MedianNS", "FS", other); m <= wf {
			t.Errorf("P-ART median: %s=%.0fns <= WineFS=%.0fns", other, m, wf)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, func(cfg Config, rep *bench.Report) error {
		return Fig9(cfg, rep, []string{"ext4-DAX", "NOVA", "WineFS", "WineFS-relaxed"})
	})
	v := func(field, name string) float64 { return value(t, rep, field, "FS", name) }
	// varmail: WineFS-relaxed ≥ ext4-DAX within noise (§5.5: "WineFS and
	// NOVA-relaxed outperform ext4-DAX by up-to 5%").
	if v("Filebench.varmail", "WineFS-relaxed") < 0.9*v("Filebench.varmail", "ext4-DAX") {
		t.Errorf("varmail: WineFS-relaxed=%.0f < ext4=%.0f",
			v("Filebench.varmail", "WineFS-relaxed"), v("Filebench.varmail", "ext4-DAX"))
	}
	// pgbench: WineFS ≥ NOVA (paper: +15% on overwrites).
	if v("PgbenchTPS", "WineFS") < v("PgbenchTPS", "NOVA") {
		t.Errorf("pgbench: WineFS=%.0f < NOVA=%.0f", v("PgbenchTPS", "WineFS"), v("PgbenchTPS", "NOVA"))
	}
	// WiredTiger fill: WineFS ≥ NOVA (paper: +60% — unaligned appends).
	if v("WTFill", "WineFS") < v("WTFill", "NOVA") {
		t.Errorf("wt fill: WineFS=%.0f < NOVA=%.0f", v("WTFill", "WineFS"), v("WTFill", "NOVA"))
	}
	// WiredTiger read: roughly equal across FSs (within 30%).
	hi, lo := v("WTRead", "WineFS"), v("WTRead", "NOVA")
	if lo > hi {
		hi, lo = lo, hi
	}
	if lo < 0.5*hi {
		t.Errorf("wt read should be FS-insensitive: WineFS=%.0f NOVA=%.0f",
			v("WTRead", "WineFS"), v("WTRead", "NOVA"))
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Fig10)
	get := func(name string) []float64 {
		out := []float64{value(t, rep, "KIOPS", "FS", name, "Threads", "1")}
		for _, th := range []string{"2", "4", "8", "16"} {
			out = append(out, value(t, rep, "ContendedKIOPS", "FS", name, "Threads", th))
		}
		return out
	}
	wf := get("WineFS")
	ext4 := get("ext4-DAX")
	nova := get("NOVA")
	// WineFS scales: 16 threads ≥ 4× single thread.
	if wf[len(wf)-1] < 4*wf[0] {
		t.Errorf("WineFS scalability: %v", wf)
	}
	// ext4 scales worse than WineFS at 16 threads (relative speedup).
	if ext4[len(ext4)-1]/ext4[0] > wf[len(wf)-1]/wf[0] {
		t.Errorf("ext4 speedup %v should trail WineFS %v", ext4, wf)
	}
	// NOVA and WineFS have the best absolute throughput at 16 threads.
	if ext4[len(ext4)-1] > wf[len(wf)-1] || ext4[len(ext4)-1] > nova[len(nova)-1] {
		t.Errorf("ext4 should not lead at 16 threads: ext4=%v wf=%v nova=%v", ext4, wf, nova)
	}
}

func TestRecoveryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Recovery)
	var ns []float64
	for _, p := range rep.Points {
		if v, ok := p.Exact["RecoveryNS"]; ok {
			ns = append(ns, v)
		}
	}
	if len(ns) < 3 || ns[2] <= ns[0] {
		t.Errorf("recovery time should grow with files: %v", ns)
	}
	// §5.2: depends on file count, not data volume — within 2×.
	small, large := value(t, rep, "SmallNS"), value(t, rep, "LargeNS")
	if large > 2*small {
		t.Errorf("recovery depends on data volume: small=%.0f large=%.0f", small, large)
	}
}

func TestDefragInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, Defrag)
	if n := value(t, rep, "FilesRewritten"); n != 1 {
		t.Fatalf("rewriter processed %.0f files", n)
	}
	// Paper: 25–40% slowdown. Accept 10–70% in the scaled setting.
	if s := value(t, rep, "SlowdownPct"); s < 10 || s > 70 {
		t.Errorf("defrag slowdown = %.1f%%, want 25-40%% regime (base=%.2f with=%.2f)", s,
			value(t, rep, "GBs", "Condition", "alone"), value(t, rep, "GBs", "Condition", "with rewriter"))
	}
}

func TestHPCProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, HPC)
	ext4, wf := value(t, rep, "AlignedFree", "FS", "ext4-DAX"), value(t, rep, "AlignedFree", "FS", "WineFS")
	// Paper: ext4 28% vs WineFS >90% at 50% utilisation. Our scaled churn
	// separates them less dramatically; assert the ordering and a clear gap.
	if wf < 0.85 {
		t.Errorf("WineFS aligned fraction = %.2f, want >0.85", wf)
	}
	if ext4 > 0.8 || wf-ext4 < 0.1 {
		t.Errorf("ext4 should fragment clearly worse: ext4=%.2f winefs=%.2f", ext4, wf)
	}
}

func TestNUMAHomeNodePolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rep := run(t, NUMA)
	remoteOn, remoteOff := value(t, rep, "RemoteFrac", "Policy", "on"), value(t, rep, "RemoteFrac", "Policy", "off")
	// With the policy, the thread is migrated to its home node and its
	// writes mostly stay local (pool boundaries don't align perfectly with
	// node boundaries, so a small remote residue remains).
	if remoteOn > 0.25 {
		t.Errorf("NUMA-aware remote-write fraction = %.2f, want small", remoteOn)
	}
	if remoteOff < 0.5 {
		t.Errorf("policy-off remote fraction = %.2f, want mostly remote (imbalanced fill)", remoteOff)
	}
	if remoteOn > remoteOff/2 {
		t.Errorf("policy did not reduce remote writes: on=%.2f off=%.2f", remoteOn, remoteOff)
	}
	if on, off := value(t, rep, "WriteNS", "Policy", "on"), value(t, rep, "WriteNS", "Policy", "off"); on > off {
		t.Errorf("NUMA awareness slowed writes: on=%.0f off=%.0f", on, off)
	}
}
