package bench

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/tier"
)

// Claim is one statement a report must show, as a relation over a report
// of schema Schema: L Op Margin×R+Offset. A side is a number, a field
// "Field@Label=value,..." of the first point carrying it and those labels
// ("Threads" reads the point's thread count), a run parameter
// "Config.Name", or the ratio "A / B" of two sides. Figure, when set, is
// one more label both sides' points carry. A label whose values the run's
// size sets is named by its extreme, "Label=min" or "Label=max": the
// smallest or largest number that label takes on the points of Figure.
type Claim struct {
	Schema string // the report tag both sides read
	Figure string // the Figure label of the points both sides read, or ""
	Shows  string // what the report must show
	Paper  string // what the paper says, with its number, or ""
	L      string
	Op     string // <=, >, >=, ==, or ~: the smaller side is at least Margin× the larger
	R      string
	Margin float64 // multiplies R; 0 means 1
	Offset float64 // added to R after Margin
}

// Claims is every claim a report is held to, grouped by schema: the
// shapes of the paper's evaluation this reproduction holds (paper/v1, in
// experiments.Runs order; EXPERIMENTS.md says where and why a bound is
// looser than the paper's number), then the bounds of the regression
// benches. Finish checks a run's rows and fails it on any that does not
// hold.
var Claims = []Claim{
	{"paper/v1", "fig1", "un-aged ext4-DAX keeps ≥70% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=ext4-DAX,Aged=false,Util=90", ">=", "GBs@FS=ext4-DAX,Aged=false,Util=0", 0.7, 0},
	{"paper/v1", "fig1", "un-aged WineFS keeps ≥70% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=WineFS,Aged=false,Util=90", ">=", "GBs@FS=WineFS,Aged=false,Util=0", 0.7, 0},
	// NOVA's per-inode log blocks fragment even a cleanly filled pool.
	{"paper/v1", "fig1", "un-aged NOVA keeps ≥50% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=NOVA,Aged=false,Util=90", ">=", "GBs@FS=NOVA,Aged=false,Util=0", 0.5, 0},
	{"paper/v1", "fig1", "aged ext4-DAX loses ≥25% of its bandwidth by 90% full", "aged, ext4-DAX and NOVA lose ~50% by 60% full",
		"GBs@FS=ext4-DAX,Aged=true,Util=90", "<=", "GBs@FS=ext4-DAX,Aged=true,Util=0", 0.75, 0},
	{"paper/v1", "fig1", "aged NOVA loses ≥25% of its bandwidth by 90% full", "aged, ext4-DAX and NOVA lose ~50% by 60% full",
		"GBs@FS=NOVA,Aged=true,Util=90", "<=", "GBs@FS=NOVA,Aged=true,Util=0", 0.75, 0},
	{"paper/v1", "fig1", "aged WineFS keeps ≥80% of its bandwidth at 90% full", "aged, WineFS stays flat to 90% full",
		"GBs@FS=WineFS,Aged=true,Util=90", ">=", "GBs@FS=WineFS,Aged=true,Util=0", 0.8, 0},

	{"paper/v1", "fig2", "base pages take ≥1.5× the hugepage time", "base pages are ~2× slower",
		"TotalUS@Config=base pages / TotalUS@Config=hugepages", ">=", "1.5", 0, 0},
	{"paper/v1", "fig2", "base pages take ≤4× the hugepage time", "base pages are ~2× slower",
		"TotalUS@Config=base pages / TotalUS@Config=hugepages", "<=", "4", 0, 0},
	{"paper/v1", "fig2", "base pages: fault handling outweighs the copy", "without hugepages two thirds is fault handling",
		"FaultUS@Config=base pages", ">=", "CopyUS@Config=base pages", 0, 0},
	{"paper/v1", "fig2", "hugepages: the copy outweighs fault handling", "with hugepages most time is data copy",
		"CopyUS@Config=hugepages", ">=", "FaultUS@Config=hugepages", 0, 0},

	{"paper/v1", "fig3", "WineFS keeps ≥60% of free space aligned at 90% full", "WineFS keeps its free space aligned as it fills",
		"AlignedFreePct@FS=WineFS,Util=90", ">=", "60", 0, 0},
	{"paper/v1", "fig3", "NOVA keeps at most half WineFS's aligned free space at 90% full", "NOVA has close to zero aligned 2MB regions by 70% full",
		"AlignedFreePct@FS=NOVA,Util=90", "<=", "AlignedFreePct@FS=WineFS,Util=90", 0.5, 0},
	{"paper/v1", "fig3", "ext4-DAX keeps at most half WineFS's aligned free space at 90% full", "ext4-DAX loses aligned free space steadily",
		"AlignedFreePct@FS=ext4-DAX,Util=90", "<=", "AlignedFreePct@FS=WineFS,Util=90", 0.5, 0},

	{"paper/v1", "fig4", "base-page median read latency is ≥3× the hugepage one", "10× median latency with base pages",
		"MedianRatio@Pages=ratio", ">=", "3", 0, 0},

	{"paper/v1", "fig6", "aged mmap sequential writes: WineFS beats NOVA", "WineFS 2.6× over NOVA",
		"GBs.seq-write@Panel=mmap,FS=WineFS", ">", "GBs.seq-write@Panel=mmap,FS=NOVA", 0, 0},
	{"paper/v1", "fig6", "aged mmap sequential writes: WineFS beats ext4-DAX", "WineFS leads mmap workloads",
		"GBs.seq-write@Panel=mmap,FS=WineFS", ">", "GBs.seq-write@Panel=mmap,FS=ext4-DAX", 0, 0},
	{"paper/v1", "fig6", "weak POSIX appends: WineFS-relaxed at least matches ext4-DAX", "ext4-DAX pays for fsync",
		"GBs.seq-write@Panel=weak,FS=WineFS-relaxed", ">=", "GBs.seq-write@Panel=weak,FS=ext4-DAX", 0, 0},
	{"paper/v1", "fig6", "strong POSIX overwrites: WineFS at least matches NOVA", "WineFS up to 25% ahead",
		"GBs.rand-write@Panel=strong,FS=WineFS", ">=", "GBs.rand-write@Panel=strong,FS=NOVA", 0, 0},

	{"paper/v1", "fig7", "LMDB: WineFS beats NOVA", "WineFS 2× over NOVA",
		"OpsPerSec.lmdb@FS=WineFS", ">", "OpsPerSec.lmdb@FS=NOVA", 0, 0},
	{"paper/v1", "fig7", "LMDB: WineFS beats ext4-DAX", "WineFS 54% over ext4-DAX",
		"OpsPerSec.lmdb@FS=WineFS", ">", "OpsPerSec.lmdb@FS=ext4-DAX", 0, 0},
	{"paper/v1", "fig7", "PmemKV: WineFS beats ext4-DAX", "WineFS 70% over ext4-DAX",
		"OpsPerSec.pmemkv@FS=WineFS", ">", "OpsPerSec.pmemkv@FS=ext4-DAX", 0, 0},
	{"paper/v1", "fig7", "Table 2, LMDB: ext4-DAX takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=ext4-DAX", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},
	{"paper/v1", "fig7", "Table 2, LMDB: xfs-DAX takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=xfs-DAX", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},
	{"paper/v1", "fig7", "Table 2, LMDB: NOVA takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=NOVA", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},

	{"paper/v1", "fig8", "P-ART median lookup: NOVA slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=NOVA", ">", "MedianNS@FS=WineFS", 0, 0},
	{"paper/v1", "fig8", "P-ART median lookup: xfs-DAX slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=xfs-DAX", ">", "MedianNS@FS=WineFS", 0, 0},
	{"paper/v1", "fig8", "P-ART median lookup: ext4-DAX slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=ext4-DAX", ">", "MedianNS@FS=WineFS", 0, 0},

	{"paper/v1", "fig9", "varmail: WineFS-relaxed within 10% of ext4-DAX or ahead", "WineFS ahead of ext4-DAX by up to 5%",
		"Filebench.varmail@FS=WineFS-relaxed", ">=", "Filebench.varmail@FS=ext4-DAX", 0.9, 0},
	{"paper/v1", "fig9", "pgbench: WineFS at least matches NOVA", "WineFS 15% over NOVA on overwrites",
		"PgbenchTPS@FS=WineFS", ">=", "PgbenchTPS@FS=NOVA", 0, 0},
	{"paper/v1", "fig9", "WiredTiger fill: WineFS at least matches NOVA", "WineFS 60% over NOVA on unaligned appends",
		"WTFill@FS=WineFS", ">=", "WTFill@FS=NOVA", 0, 0},
	{"paper/v1", "fig9", "WiredTiger read: WineFS and NOVA within 2× of each other", "reads are file-system independent",
		"WTRead@FS=WineFS", "~", "WTRead@FS=NOVA", 0.5, 0},

	{"paper/v1", "fig10", "WineFS at 16 threads ≥4× its one-thread throughput", "WineFS and NOVA scale best",
		"ContendedKIOPS@FS=WineFS,Threads=16", ">=", "KIOPS@FS=WineFS,Threads=1", 4, 0},
	{"paper/v1", "fig10", "ext4-DAX's 16-thread speedup trails WineFS's", "ext4-DAX plateaus (stop-the-world JBD2 on fsync)",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16 / KIOPS@FS=ext4-DAX,Threads=1", "<=",
		"ContendedKIOPS@FS=WineFS,Threads=16 / KIOPS@FS=WineFS,Threads=1", 0, 0},
	{"paper/v1", "fig10", "ext4-DAX does not lead WineFS at 16 threads", "WineFS and NOVA lead at 16 threads",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16", "<=", "ContendedKIOPS@FS=WineFS,Threads=16", 0, 0},
	{"paper/v1", "fig10", "ext4-DAX does not lead NOVA at 16 threads", "WineFS and NOVA lead at 16 threads",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16", "<=", "ContendedKIOPS@FS=NOVA,Threads=16", 0, 0},

	{"paper/v1", "recovery", "recovery time grows with file count", "time set by the number of files (3.5M files in 7.8 s)",
		"RecoveryNS@Files=max", ">", "RecoveryNS@Files=min", 0, 0},
	{"paper/v1", "recovery", "64× the data recovers within 2× the time", "not by the amount of data (675 GB)",
		"LargeNS", "<=", "SmallNS", 2, 0},

	{"paper/v1", "hpc", "WineFS keeps ≥85% of free space aligned at 50% full", "50% full: WineFS >90% aligned",
		"AlignedFree@FS=WineFS", ">=", "0.85", 0, 0},
	{"paper/v1", "hpc", "ext4-DAX keeps ≤80% of free space aligned", "50% full: ext4-DAX 28% aligned",
		"AlignedFree@FS=ext4-DAX", "<=", "0.8", 0, 0},
	{"paper/v1", "hpc", "WineFS's aligned fraction leads ext4-DAX's by ≥0.1", "ext4-DAX 28% vs WineFS >90%",
		"AlignedFree@FS=WineFS", ">=", "AlignedFree@FS=ext4-DAX", 0, 0.1},

	// Pool boundaries do not align with node boundaries, so a small remote
	// residue remains under the policy.
	{"paper/v1", "numa", "with the policy ≤25% of writes are remote", "writes stay on the home node",
		"RemoteFrac@Policy=on", "<=", "0.25", 0, 0},
	{"paper/v1", "numa", "without the policy ≥50% of writes are remote", "an imbalanced fill sends writes remote",
		"RemoteFrac@Policy=off", ">=", "0.5", 0, 0},
	{"paper/v1", "numa", "the policy at least halves remote writes", "NUMA awareness keeps writes local",
		"RemoteFrac@Policy=on", "<=", "RemoteFrac@Policy=off", 0.5, 0},
	{"paper/v1", "numa", "the policy does not slow writes", "local writes are faster",
		"WriteNS@Policy=on", "<=", "WriteNS@Policy=off", 0, 0},

	{"paper/v1", "ablation", "no aligned pool: ≤80% of WineFS's aligned free space at 70% full", "§3.4: the aligned pool keeps aged free space hugepage-sized",
		"AlignedFreePct@Variant=no aligned pool", "<=", "AlignedFreePct@Variant=aligned pool", 0.8, 0},
	{"paper/v1", "ablation", "single journal: ≤half WineFS's 8-thread throughput", "§3.4: per-CPU journals let metadata operations scale",
		"ContendedKIOPS@Variant=per-CPU journals", ">=", "ContendedKIOPS@Variant=single journal", 2, 0},

	// Figure 1's motivating gap, through mapped reads: aged ext4-DAX
	// loses its hugepages, unaged file systems keep them.
	{"mmap/v1", "", "unaged WineFS maps ≥90% of the file with hugepages", "",
		"HugeCoverage@FS=WineFS,Aged=false", ">=", "0.9", 0, 0},
	{"mmap/v1", "", "unaged ext4-DAX maps ≥90% of the file with hugepages", "",
		"HugeCoverage@FS=ext4-DAX,Aged=false", ">=", "0.9", 0, 0},
	{"mmap/v1", "", "aged ext4-DAX mapped reads cost ≥3× unaged ones", "aged, ext4-DAX and NOVA lose ~50% by 60% full",
		"AgedSlowdown@FS=ext4-DAX,Aged=true", ">=", "3", 0, 0},

	// §3.5 end to end: a live mapping on an adversarially aged image
	// recovers its hugepages without a refault, at the §4 interference
	// price unthrottled and at a tenth of it paced.
	{"defrag/v1", "", "defrag recovers ≥90% of the unaged hugepage coverage", "",
		"RecoveredCoverage@Part=Soak", ">=", "UnagedHuge@Part=Soak / UnagedTotal@Part=Soak", 0.9, 0},
	{"defrag/v1", "", "the unthrottled pass rewrites the one fragmented file", "a fragmented 5GB file is rewritten in the background",
		"Rewrites@Part=Interference,Budget=1", "==", "1", 0, 0},
	{"defrag/v1", "", "unthrottled defrag slows the foreground ≥25%", "25–40% foreground slowdown",
		"SlowdownPct@Part=Interference,Budget=1", ">=", "25", 0, 0},
	{"defrag/v1", "", "unthrottled defrag slows the foreground ≤40%", "25–40% foreground slowdown",
		"SlowdownPct@Part=Interference,Budget=1", "<=", "40", 0, 0},
	{"defrag/v1", "", "paced defrag slows the foreground ≤10%", "",
		"SlowdownPct@Part=Interference,Budget=0.08", "<=", "10", 0, 0},

	// Tiering degrades with the miss ratio instead of collapsing to the
	// slow device's speed. A working set of exactly 1x is judged as
	// degraded: the water marks keep ~20% of PM as spill headroom, so it
	// cannot be wholly PM-resident. A Frac=1.5 side without Dead reads the
	// plain point, which comes first.
	{"tier/v1", "", "a 0.5x working set keeps ≥75% of all-PM throughput", "",
		"Ratio@Frac=0.5,Tiered=true", ">=", "0.75", 0, 0},
	{"tier/v1", "", "a 1x working set keeps ≥25% of all-PM throughput", "",
		"Ratio@Frac=1,Tiered=true", ">=", "0.25", 0, 0},
	{"tier/v1", "", "a 1.5x working set keeps ≥25% of all-PM throughput", "",
		"Ratio@Frac=1.5,Tiered=true", ">=", "0.25", 0, 0},
	{"tier/v1", "", "a 2x working set keeps ≥25% of all-PM throughput", "",
		"Ratio@Frac=2,Tiered=true", ">=", "0.25", 0, 0},
	{"tier/v1", "", "1.5x behind dead data keeps ≥25% of all-PM throughput", "",
		"Ratio@Frac=1.5,Tiered=true,Dead=0.5", ">=", "0.25", 0, 0},
	{"tier/v1", "", "a 2x working set spills allocations to the slow tier", "",
		"SetupCounters.AllocSpillBlocks@Frac=2,Tiered=true", ">", "0", 0, 0},
	// A cold miss reads the slow tier, and each slow read advances the
	// sweep's clock by at least the device's command latency.
	{"tier/v1", "", "a 1.5x sweep reads the slow tier", "",
		"Counters.SlowReadBytes@Frac=1.5,Tiered=true", ">", "0", 0, 0},
	{"tier/v1", "", "a 1.5x sweep pays each slow read's latency", "",
		"SweepNS@Frac=1.5,Tiered=true", ">=", "Counters.SlowReads@Frac=1.5,Tiered=true", tier.ReadLatNS, 0},
	{"tier/v1", "", "a 2x sweep reads the slow tier", "",
		"Counters.SlowReadBytes@Frac=2,Tiered=true", ">", "0", 0, 0},
	{"tier/v1", "", "a 2x sweep pays each slow read's latency", "",
		"SweepNS@Frac=2,Tiered=true", ">=", "Counters.SlowReads@Frac=2,Tiered=true", tier.ReadLatNS, 0},
	{"tier/v1", "", "1.5x behind dead data reads the slow tier", "",
		"Counters.SlowReadBytes@Frac=1.5,Tiered=true,Dead=0.5", ">", "0", 0, 0},
	{"tier/v1", "", "1.5x behind dead data pays each slow read's latency", "",
		"SweepNS@Frac=1.5,Tiered=true,Dead=0.5", ">=", "Counters.SlowReads@Frac=1.5,Tiered=true,Dead=0.5", tier.ReadLatNS, 0},
	// Data nobody reads gives its PM up to the data the sweep reads
	// (DESIGN §14, usage.dead).
	{"tier/v1", "", "1.5x behind dead data keeps ≥90% of the plain 1.5x ratio", "",
		"Ratio@Frac=1.5,Tiered=true,Dead=0.5", ">=", "Ratio@Frac=1.5,Tiered=true", 0.9, 0},

	// Each HotScan scan slice is a whole cache of pages read once, so
	// plain LRU would hit 0% of the hot set; keeping it through the scan
	// is what the active/inactive lists are for.
	{"cache/v1", "", "cached re-reads are ≥5× cheaper than uncached ones", "",
		"ReadSpeedup@Variant=Cached", ">=", "5", 0, 0},
	{"cache/v1", "", "≥95% of hot-set re-reads hit through the scans", "",
		"HotHitRatio@Variant=HotScan", ">=", "0.95", 0, 0},

	// Sync mode charges each mutating request the modelled wait for
	// replica durability, about 55% of the plain spans on this write-heavy
	// mix; the bound catches a charge-model or batching slip without
	// hiding that cost. It is on the summed client spans, not the
	// makespan, whose run-to-run spread is wider than any honest bound.
	{"server-mix-replicated/v1", "", "sync replication adds ≤65% to the summed client spans", "",
		"OverheadPct", "<=", "65", 0, 0},
	{"server-mix-replicated/v1", "", "each replica takes one baseline resync", "",
		"Resyncs", "==", "Config.Replicas", 0, 0},
}

// Verdict is a claim evaluated on one report.
type Verdict struct {
	Claim
	L, R  float64 // the sides as measured, R before Margin and Offset
	Holds bool
	Err   error // a side has no such point or field, or Op is unknown
}

// Check evaluates c on rep.
func (c Claim) Check(rep *Report) Verdict {
	v := Verdict{Claim: c}
	var errL, errR error
	v.L, errL = c.side(rep, c.L)
	v.R, errR = c.side(rep, c.R)
	if v.Err = cmp.Or(errL, errR); v.Err != nil {
		return v
	}
	r := v.R
	if c.Margin != 0 {
		r *= c.Margin
	}
	r += c.Offset
	switch c.Op {
	case "<=":
		v.Holds = v.L <= r
	case ">":
		v.Holds = v.L > r
	case ">=":
		v.Holds = v.L >= r
	case "==":
		v.Holds = v.L == r
	case "~":
		v.Holds = min(v.L, v.R) >= c.Margin*max(v.L, v.R)
	default:
		v.Err = fmt.Errorf("unknown operator %q", c.Op)
	}
	return v
}

// side reads one side of c: a number, a field, a run parameter, or a
// ratio of two sides.
func (c Claim) side(rep *Report, s string) (float64, error) {
	if num, den, ok := strings.Cut(s, " / "); ok {
		n, err := c.side(rep, num)
		if err != nil {
			return 0, err
		}
		d, err := c.side(rep, den)
		return n / d, err
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if name, ok := strings.CutPrefix(s, "Config."); ok {
		if v, ok := rep.Config[name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("no %s in %s", s, rep.Bench)
	}
	name, at, _ := strings.Cut(s, "@")
	where := map[string]string{}
	if c.Figure != "" {
		where["Figure"] = c.Figure
	}
	for _, kv := range strings.Split(at, ",") {
		if k, val, ok := strings.Cut(kv, "="); ok {
			where[k] = val
			if val == "min" || val == "max" {
				where[k] = c.extreme(rep, k, val)
			}
		}
	}
	v, ok := rep.Value(name, where)
	if !ok {
		return 0, fmt.Errorf("no %s in %s", s, cmp.Or(c.Figure, rep.Bench))
	}
	return v, nil
}

// extreme returns the value of label k, among c's figure's points whose
// k is a number, that is the smallest (which "min") or the largest.
func (c Claim) extreme(rep *Report, k, which string) string {
	var best string
	var bestN float64
	for _, p := range rep.Points {
		n, err := strconv.ParseFloat(p.Labels[k], 64)
		if err != nil || p.Labels["Figure"] != c.Figure {
			continue
		}
		if best == "" || (which == "min" && n < bestN) || (which == "max" && n > bestN) {
			best, bestN = p.Labels[k], n
		}
	}
	return best
}

// String renders the verdict's measured relation, e.g. "1.02 >= 0.8×1.16".
func (v Verdict) String() string {
	if v.Err != nil {
		return v.Err.Error()
	}
	r := measured(v.R)
	if v.Margin != 0 {
		r = fmt.Sprintf("%g×%s", v.Margin, r)
	}
	if v.Offset != 0 {
		r = fmt.Sprintf("%s+%g", r, v.Offset)
	}
	return measured(v.L) + " " + v.Op + " " + r
}

// measured renders a value with four significant digits, or as an integer
// from 10,000 up.
func measured(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// Verdicts evaluates on r, in Claims order, every claim about r's schema
// whose Figure carries the labels of where, read as a Table's Where; a nil
// where keeps them all. A figure r lacks shows as a claim with an error.
func (r *Report) Verdicts(where map[string]string) []Verdict {
	var vs []Verdict
	for _, c := range Claims {
		if c.Schema == r.Bench && selects(where, &Point{Labels: map[string]string{"Figure": c.Figure}}) {
			vs = append(vs, c.Check(r))
		}
	}
	return vs
}

// PrintVerdicts writes vs as one table, each claim named by its figure,
// or else its schema: claim, paper, measured, holds.
func PrintVerdicts(w io.Writer, vs []Verdict) {
	rep := &Report{}
	for _, v := range vs {
		holds := "yes"
		if !v.Holds {
			holds = "NO"
		}
		rep.Point(map[string]string{"Figure": cmp.Or(v.Figure, v.Schema), "Claim": v.Shows, "Paper": v.Paper,
			"Measured": v.String(), "Holds": holds}, 0)
	}
	rep.Print(w, Table{
		Title: "Claims", Rows: []string{"Figure", "Claim"}, RowHead: "claim",
		Cols: []Col{{Head: "paper", Label: "Paper"}, {Head: "measured", Label: "Measured"}, {Head: "holds", Label: "Holds"}},
	})
}

// failed is the error of vs, naming each claim that does not hold or
// cannot be evaluated, or nil when every one holds.
func failed(vs []Verdict) error {
	var bad []string
	for _, v := range vs {
		if !v.Holds {
			bad = append(bad, fmt.Sprintf("%q (%s)", v.Shows, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d claims fail: %s", len(bad), len(vs), strings.Join(bad, "; "))
}
