package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// Claim is one statement of the paper's evaluation as a relation over a
// paper/v1 report: L Op Margin×R+Offset. A side is a number, a field
// "Field@Label=value,..." of the first point of Figure carrying it and
// those labels ("Threads" reads the point's thread count), or the ratio
// "A / B" of two fields. A label whose values the run's size sets is
// named by its extreme, "Label=min" or "Label=max": the smallest or
// largest number that label takes on the figure's points.
type Claim struct {
	Figure string // the Figure label of the points both sides read
	Shows  string // what the report must show
	Paper  string // what the paper says, with its number
	L      string
	Op     string // <=, >, >=, ==, or ~: the smaller side is at least Margin× the larger
	R      string
	Margin float64 // multiplies R; 0 means 1
	Offset float64 // added to R after Margin
}

// Claims is every shape of the paper's evaluation this reproduction
// holds, in experiments.Runs order. EXPERIMENTS.md says where and why a
// bound is looser than the paper's number.
var Claims = []Claim{
	{"fig1", "un-aged ext4-DAX keeps ≥70% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=ext4-DAX,Aged=false,Util=90", ">=", "GBs@FS=ext4-DAX,Aged=false,Util=0", 0.7, 0},
	{"fig1", "un-aged WineFS keeps ≥70% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=WineFS,Aged=false,Util=90", ">=", "GBs@FS=WineFS,Aged=false,Util=0", 0.7, 0},
	// NOVA's per-inode log blocks fragment even a cleanly filled pool.
	{"fig1", "un-aged NOVA keeps ≥50% of its bandwidth at 90% full", "un-aged, peak bandwidth at every utilisation",
		"GBs@FS=NOVA,Aged=false,Util=90", ">=", "GBs@FS=NOVA,Aged=false,Util=0", 0.5, 0},
	{"fig1", "aged ext4-DAX loses ≥25% of its bandwidth by 90% full", "aged, ext4-DAX and NOVA lose ~50% by 60% full",
		"GBs@FS=ext4-DAX,Aged=true,Util=90", "<=", "GBs@FS=ext4-DAX,Aged=true,Util=0", 0.75, 0},
	{"fig1", "aged NOVA loses ≥25% of its bandwidth by 90% full", "aged, ext4-DAX and NOVA lose ~50% by 60% full",
		"GBs@FS=NOVA,Aged=true,Util=90", "<=", "GBs@FS=NOVA,Aged=true,Util=0", 0.75, 0},
	{"fig1", "aged WineFS keeps ≥80% of its bandwidth at 90% full", "aged, WineFS stays flat to 90% full",
		"GBs@FS=WineFS,Aged=true,Util=90", ">=", "GBs@FS=WineFS,Aged=true,Util=0", 0.8, 0},

	{"fig2", "base pages take ≥1.5× the hugepage time", "base pages are ~2× slower",
		"TotalUS@Config=base pages / TotalUS@Config=hugepages", ">=", "1.5", 0, 0},
	{"fig2", "base pages take ≤4× the hugepage time", "base pages are ~2× slower",
		"TotalUS@Config=base pages / TotalUS@Config=hugepages", "<=", "4", 0, 0},
	{"fig2", "base pages: fault handling outweighs the copy", "without hugepages two thirds is fault handling",
		"FaultUS@Config=base pages", ">=", "CopyUS@Config=base pages", 0, 0},
	{"fig2", "hugepages: the copy outweighs fault handling", "with hugepages most time is data copy",
		"CopyUS@Config=hugepages", ">=", "FaultUS@Config=hugepages", 0, 0},

	{"fig3", "WineFS keeps ≥60% of free space aligned at 90% full", "WineFS keeps its free space aligned as it fills",
		"AlignedFreePct@FS=WineFS,Util=90", ">=", "60", 0, 0},
	{"fig3", "NOVA keeps at most half WineFS's aligned free space at 90% full", "NOVA has close to zero aligned 2MB regions by 70% full",
		"AlignedFreePct@FS=NOVA,Util=90", "<=", "AlignedFreePct@FS=WineFS,Util=90", 0.5, 0},
	{"fig3", "ext4-DAX keeps at most half WineFS's aligned free space at 90% full", "ext4-DAX loses aligned free space steadily",
		"AlignedFreePct@FS=ext4-DAX,Util=90", "<=", "AlignedFreePct@FS=WineFS,Util=90", 0.5, 0},

	{"fig4", "base-page median read latency is ≥3× the hugepage one", "10× median latency with base pages",
		"MedianRatio@Pages=ratio", ">=", "3", 0, 0},

	{"fig6", "aged mmap sequential writes: WineFS beats NOVA", "WineFS 2.6× over NOVA",
		"GBs.seq-write@Panel=mmap,FS=WineFS", ">", "GBs.seq-write@Panel=mmap,FS=NOVA", 0, 0},
	{"fig6", "aged mmap sequential writes: WineFS beats ext4-DAX", "WineFS leads mmap workloads",
		"GBs.seq-write@Panel=mmap,FS=WineFS", ">", "GBs.seq-write@Panel=mmap,FS=ext4-DAX", 0, 0},
	{"fig6", "weak POSIX appends: WineFS-relaxed at least matches ext4-DAX", "ext4-DAX pays for fsync",
		"GBs.seq-write@Panel=weak,FS=WineFS-relaxed", ">=", "GBs.seq-write@Panel=weak,FS=ext4-DAX", 0, 0},
	{"fig6", "strong POSIX overwrites: WineFS at least matches NOVA", "WineFS up to 25% ahead",
		"GBs.rand-write@Panel=strong,FS=WineFS", ">=", "GBs.rand-write@Panel=strong,FS=NOVA", 0, 0},

	{"fig7", "LMDB: WineFS beats NOVA", "WineFS 2× over NOVA",
		"OpsPerSec.lmdb@FS=WineFS", ">", "OpsPerSec.lmdb@FS=NOVA", 0, 0},
	{"fig7", "LMDB: WineFS beats ext4-DAX", "WineFS 54% over ext4-DAX",
		"OpsPerSec.lmdb@FS=WineFS", ">", "OpsPerSec.lmdb@FS=ext4-DAX", 0, 0},
	{"fig7", "PmemKV: WineFS beats ext4-DAX", "WineFS 70% over ext4-DAX",
		"OpsPerSec.pmemkv@FS=WineFS", ">", "OpsPerSec.pmemkv@FS=ext4-DAX", 0, 0},
	{"fig7", "Table 2, LMDB: ext4-DAX takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=ext4-DAX", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},
	{"fig7", "Table 2, LMDB: xfs-DAX takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=xfs-DAX", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},
	{"fig7", "Table 2, LMDB: NOVA takes ≥10× WineFS's faults", "LMDB: 205–280× fewer faults on WineFS",
		"Faults.lmdb-fillseqbatch@FS=NOVA", ">=", "Faults.lmdb-fillseqbatch@FS=WineFS", 10, 0},

	{"fig8", "P-ART median lookup: NOVA slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=NOVA", ">", "MedianNS@FS=WineFS", 0, 0},
	{"fig8", "P-ART median lookup: xfs-DAX slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=xfs-DAX", ">", "MedianNS@FS=WineFS", 0, 0},
	{"fig8", "P-ART median lookup: ext4-DAX slower than WineFS", "56% lower median latency on WineFS",
		"MedianNS@FS=ext4-DAX", ">", "MedianNS@FS=WineFS", 0, 0},

	{"fig9", "varmail: WineFS-relaxed within 10% of ext4-DAX or ahead", "WineFS ahead of ext4-DAX by up to 5%",
		"Filebench.varmail@FS=WineFS-relaxed", ">=", "Filebench.varmail@FS=ext4-DAX", 0.9, 0},
	{"fig9", "pgbench: WineFS at least matches NOVA", "WineFS 15% over NOVA on overwrites",
		"PgbenchTPS@FS=WineFS", ">=", "PgbenchTPS@FS=NOVA", 0, 0},
	{"fig9", "WiredTiger fill: WineFS at least matches NOVA", "WineFS 60% over NOVA on unaligned appends",
		"WTFill@FS=WineFS", ">=", "WTFill@FS=NOVA", 0, 0},
	{"fig9", "WiredTiger read: WineFS and NOVA within 2× of each other", "reads are file-system independent",
		"WTRead@FS=WineFS", "~", "WTRead@FS=NOVA", 0.5, 0},

	{"fig10", "WineFS at 16 threads ≥4× its one-thread throughput", "WineFS and NOVA scale best",
		"ContendedKIOPS@FS=WineFS,Threads=16", ">=", "KIOPS@FS=WineFS,Threads=1", 4, 0},
	{"fig10", "ext4-DAX's 16-thread speedup trails WineFS's", "ext4-DAX plateaus (stop-the-world JBD2 on fsync)",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16 / KIOPS@FS=ext4-DAX,Threads=1", "<=",
		"ContendedKIOPS@FS=WineFS,Threads=16 / KIOPS@FS=WineFS,Threads=1", 0, 0},
	{"fig10", "ext4-DAX does not lead WineFS at 16 threads", "WineFS and NOVA lead at 16 threads",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16", "<=", "ContendedKIOPS@FS=WineFS,Threads=16", 0, 0},
	{"fig10", "ext4-DAX does not lead NOVA at 16 threads", "WineFS and NOVA lead at 16 threads",
		"ContendedKIOPS@FS=ext4-DAX,Threads=16", "<=", "ContendedKIOPS@FS=NOVA,Threads=16", 0, 0},

	{"recovery", "recovery time grows with file count", "time set by the number of files (3.5M files in 7.8 s)",
		"RecoveryNS@Files=max", ">", "RecoveryNS@Files=min", 0, 0},
	{"recovery", "64× the data recovers within 2× the time", "not by the amount of data (675 GB)",
		"LargeNS", "<=", "SmallNS", 2, 0},

	{"defrag", "the rewriter processes the one fragmented file", "a fragmented 5GB file is rewritten in the background",
		"FilesRewritten", "==", "1", 0, 0},
	{"defrag", "foreground slowdown ≥10%", "25–40% foreground slowdown",
		"SlowdownPct", ">=", "10", 0, 0},
	{"defrag", "foreground slowdown ≤70%", "25–40% foreground slowdown",
		"SlowdownPct", "<=", "70", 0, 0},

	{"hpc", "WineFS keeps ≥85% of free space aligned at 50% full", "50% full: WineFS >90% aligned",
		"AlignedFree@FS=WineFS", ">=", "0.85", 0, 0},
	{"hpc", "ext4-DAX keeps ≤80% of free space aligned", "50% full: ext4-DAX 28% aligned",
		"AlignedFree@FS=ext4-DAX", "<=", "0.8", 0, 0},
	{"hpc", "WineFS's aligned fraction leads ext4-DAX's by ≥0.1", "ext4-DAX 28% vs WineFS >90%",
		"AlignedFree@FS=WineFS", ">=", "AlignedFree@FS=ext4-DAX", 0, 0.1},

	// Pool boundaries do not align with node boundaries, so a small remote
	// residue remains under the policy.
	{"numa", "with the policy ≤25% of writes are remote", "writes stay on the home node",
		"RemoteFrac@Policy=on", "<=", "0.25", 0, 0},
	{"numa", "without the policy ≥50% of writes are remote", "an imbalanced fill sends writes remote",
		"RemoteFrac@Policy=off", ">=", "0.5", 0, 0},
	{"numa", "the policy at least halves remote writes", "NUMA awareness keeps writes local",
		"RemoteFrac@Policy=on", "<=", "RemoteFrac@Policy=off", 0.5, 0},
	{"numa", "the policy does not slow writes", "local writes are faster",
		"WriteNS@Policy=on", "<=", "WriteNS@Policy=off", 0, 0},
}

// Verdict is a claim evaluated on one report.
type Verdict struct {
	Claim
	L, R  float64 // the sides as measured, R before Margin and Offset
	Holds bool
	Err   error // a side has no such point or field, or Op is unknown
}

// Check evaluates c on rep.
func (c Claim) Check(rep *bench.Report) Verdict {
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

// side reads one side of c: a number, a field, or a ratio of two fields.
func (c Claim) side(rep *bench.Report, s string) (float64, error) {
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
	name, at, _ := strings.Cut(s, "@")
	where := map[string]string{"Figure": c.Figure}
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
		return 0, fmt.Errorf("no %s in %s", s, c.Figure)
	}
	return v, nil
}

// extreme returns the value of label k, among c's figure's points whose
// k is a number, that is the smallest (which "min") or the largest.
func (c Claim) extreme(rep *bench.Report, k, which string) string {
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

// Print writes what winebench -run prints for runs: each run's tables
// over rep, in order, then the verdicts of the paper's claims about those
// runs, when there are any. EXPERIMENTS.md holds what it prints for each
// run alone.
func Print(w io.Writer, rep *bench.Report, runs []Run) {
	var names []string
	for _, r := range runs {
		rep.Print(w, r.Tables...)
		names = append(names, r.Name)
	}
	if vs := verdicts(rep, names); len(vs) > 0 {
		printVerdicts(w, vs)
	}
}

// verdicts evaluates on rep, in Claims order, every claim about one of
// figs; a figure rep lacks shows as a claim with an error.
func verdicts(rep *bench.Report, figs []string) []Verdict {
	var vs []Verdict
	for _, c := range Claims {
		if slices.Contains(figs, c.Figure) {
			vs = append(vs, c.Check(rep))
		}
	}
	return vs
}

// printVerdicts writes vs as one table: claim, paper, measured, holds.
func printVerdicts(w io.Writer, vs []Verdict) {
	rep := &bench.Report{}
	for _, v := range vs {
		holds := "yes"
		if !v.Holds {
			holds = "NO"
		}
		rep.Point(map[string]string{"Figure": v.Figure, "Claim": v.Shows, "Paper": v.Paper,
			"Measured": v.String(), "Holds": holds}, 0)
	}
	rep.Print(w, bench.Table{
		Title: "The paper's claims", Rows: []string{"Figure", "Claim"}, RowHead: "claim",
		Cols: []bench.Col{{Head: "paper", Label: "Paper"}, {Head: "measured", Label: "Measured"}, {Head: "holds", Label: "Holds"}},
	})
}
