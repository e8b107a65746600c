package bench

import "strings"

// Class is how Check treats one field.
type Class int

const (
	Exact      Class = iota // must equal the baseline
	Toleranced              // contention-derived: within lockWaitTolerance
	Placement               // allocator placement count: Toleranced above placementFloor
	Info                    // recorded for readers, never compared
)

func (c Class) String() string {
	return [...]string{"exact", "toleranced", "placement", "info"}[c]
}

// Classes lists a report's non-exact fields; every name in none of the
// lists is Exact. An entry ending in "." covers every name it prefixes.
type Classes struct {
	Toleranced, Placement, Info []string
}

// Of returns the class of a field name.
func (c Classes) Of(name string) Class {
	switch {
	case matches(c.Info, name):
		return Info
	case matches(c.Placement, name):
		return Placement
	case matches(c.Toleranced, name):
		return Toleranced
	}
	return Exact
}

func matches(list []string, name string) bool {
	for _, e := range list {
		if e == name || (strings.HasSuffix(e, ".") && strings.HasPrefix(name, e)) {
			return true
		}
	}
	return false
}

// known maps a report schema tag to its field classes, one entry per
// winebench gate. bench_test.go pins every field's class, so loosening a
// gate shows up as a diff there too.
var known = map[string]Classes{
	// -server: spans, the latency digest and lock wait are contention-derived.
	"server-mix/v1": {
		Toleranced: []string{"SpanNS", "OpsPerSec", "Latency.MeanNS", "Latency.P50NS", "Latency.P99NS", "Counters.LockWaitNS"},
		Info:       []string{"Latency.P90NS", "Latency.MaxNS", "ClientCounters.", "Sessions", "HitRatio", "Cache."},
	},
	// -replicated: group-commit batching follows real scheduler
	// interleaving, so the record stream wobbles a fraction of a percent.
	"server-mix-replicated/v1": {
		Toleranced: []string{"RecordsLogged", "BytesLogged", "PlainSpanNS", "ReplicatedSpanNS", "PlainSumNS", "ReplicatedSumNS"},
		Info:       []string{"OverheadPct"},
	},
	// -scaling: WHERE an allocation lands (local pool, remote steal, broken
	// hugepage) shifts with host-order ties exactly like lock waits do; the
	// amounts allocated stay exact. Counters.LockWaitNS repeats LockWaitNS.
	"scaling/v1": {
		Toleranced: []string{"SpanNS", "OpsPerSec", "LockWaitNS"},
		Placement:  []string{"Counters.AllocSteals", "Counters.AllocSplits"},
		Info:       []string{"Counters.LockWaitNS"},
	},
	// -cache: the HotScan point has no timing field: every client works
	// alone through its own cache, and its counts repeat exactly.
	"cache/v1": {
		Toleranced: []string{"ReadNS", "PopulateNS", "RewriteNS", "ReadNSPerRead", "ReadSpeedup", "Counters.LockWaitNS"},
		Info:       []string{"HitRatio", "HotHitRatio", "Cache."},
	},
	"mmap/v1": {
		Toleranced: []string{"SetupNS", "MapNS", "SweepNS", "WriteNS", "NSPerRead", "Counters.LockWaitNS"},
		Info:       []string{"HugeCoverage", "AgedSlowdown"},
	},
	// -defrag: the §4 interference runs on one goroutine, so its
	// bandwidths and slowdown repeat bit for bit and are exact.
	"defrag/v1": {
		Toleranced: []string{"SetupNS", "DefragNS", "Counters.LockWaitNS"},
		Info:       []string{"RecoveredCoverage"},
	},
	// -run: the paper's figures. Derived ratios are Info, and so are the
	// throughputs of runs whose threads' bookings interleave in host order
	// (Figure 9's Filebench and pgbench, Figure 10 above one thread, the
	// ablation's journal arm): they
	// move by up to a quarter run to run, past any honest tolerance. Every
	// other value repeats bit for bit.
	"paper/v1": {
		Info: []string{"VsExt4.", "VsWineFS.", "MedianRatio", "Filebench.", "PgbenchTPS", "ContendedKIOPS"},
	},
	"tier/v1": {
		Toleranced: []string{"SetupNS", "SweepNS", "NSPerOp", "SetupCounters.LockWaitNS", "Counters.LockWaitNS", "MigrCounters.LockWaitNS"},
		Info:       []string{"GBps", "Ratio"},
	},
}
