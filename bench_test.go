// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) plus the discussion-section experiments (§4). Each benchmark runs
// the corresponding experiment and reports the headline quantities as
// benchmark metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. The printed metric names mirror the paper's claims, e.g.
// fig1's aged-WineFS-vs-aged-NOVA bandwidth ratio.
//
// Benchmarks run the experiments in Quick mode so the full suite finishes
// in minutes; cmd/winebench runs the full-size versions and prints the
// paper-style tables.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/crashmonkey"
	"repro/internal/experiments"
)

// run packs one experiment in Quick mode into a fresh report.
func run(b *testing.B, exp func(experiments.Config, *bench.Report) error) *bench.Report {
	cfg := experiments.Config{Quick: true, CPUs: 4, Seed: 42}.Defaults()
	rep := experiments.NewReport(cfg)
	if err := exp(cfg, rep); err != nil {
		b.Fatal(err)
	}
	return rep
}

// field returns name from the first point of rep whose labels include the
// key, value pairs kv.
func field(b *testing.B, rep *bench.Report, name string, kv ...string) float64 {
points:
	for _, p := range rep.Points {
		for i := 0; i+1 < len(kv); i += 2 {
			if p.Labels[kv[i]] != kv[i+1] {
				continue points
			}
		}
		for _, m := range []map[string]float64{p.Exact, p.Toleranced, p.Info} {
			if v, ok := m[name]; ok {
				return v
			}
		}
	}
	b.Fatalf("no %s at %v", name, kv)
	return 0
}

// metric reports a field of rep as the benchmark metric unit.
func metric(b *testing.B, rep *bench.Report, unit, name string, kv ...string) {
	b.ReportMetric(field(b, rep, name, kv...), unit)
}

// BenchmarkFig1AgedBandwidth regenerates Figure 1: mmap write bandwidth on
// un-aged vs aged file systems across utilisation levels.
func BenchmarkFig1AgedBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig1)
		for _, fs := range []string{"ext4-DAX", "NOVA", "WineFS"} {
			metric(b, rep, "aged90-"+fs+"-GB/s", "GBs", "FS", fs, "Aged", "true", "Util", "90")
		}
		metric(b, rep, "unaged90-WineFS-GB/s", "GBs", "FS", "WineFS", "Aged", "false", "Util", "90")
	}
}

// BenchmarkFig2MmapOverhead regenerates Figure 2: time to mmap+write a
// 2MiB file with hugepages vs base pages, with the copy/fault breakdown.
func BenchmarkFig2MmapOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig2)
		metric(b, rep, "huge-total-us", "TotalUS", "Config", "hugepages")
		metric(b, rep, "base-total-us", "TotalUS", "Config", "base pages")
		metric(b, rep, "base-fault-us", "FaultUS", "Config", "base pages")
	}
}

// BenchmarkFig3Fragmentation regenerates Figure 3: % of free space in
// aligned 2MiB regions as utilisation rises under aging.
func BenchmarkFig3Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig3)
		for _, fs := range []string{"ext4-DAX", "NOVA", "WineFS"} {
			metric(b, rep, fs+"-aligned-pct-at-90", "AlignedFreePct", "FS", fs, "Util", "90")
		}
	}
}

// BenchmarkFig4TLBMisses regenerates Figure 4: pre-faulted random-read
// latency, base pages vs hugepages.
func BenchmarkFig4TLBMisses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig4)
		metric(b, rep, "huge-median-ns", "MedianNS", "Pages", "2MB-pages")
		metric(b, rep, "base-median-ns", "MedianNS", "Pages", "4KB-pages")
		metric(b, rep, "median-ratio", "MedianRatio", "Pages", "ratio")
	}
}

// BenchmarkFig6Throughput regenerates Figure 6: read/write throughput for
// mmap and POSIX access on aged file systems.
func BenchmarkFig6Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig6)
		metric(b, rep, "mmap-seqwrite-WineFS-GB/s", "GBs.seq-write", "Panel", "mmap", "FS", "WineFS")
		metric(b, rep, "mmap-seqwrite-NOVA-GB/s", "GBs.seq-write", "Panel", "mmap", "FS", "NOVA")
		metric(b, rep, "mmap-seqwrite-ext4-GB/s", "GBs.seq-write", "Panel", "mmap", "FS", "ext4-DAX")
		metric(b, rep, "posix-randwrite-WineFS-GB/s", "GBs.rand-write", "Panel", "strong", "FS", "WineFS")
		metric(b, rep, "posix-randwrite-NOVA-GB/s", "GBs.rand-write", "Panel", "strong", "FS", "NOVA")
	}
}

// BenchmarkFig7AgedApps regenerates Figure 7: RocksDB/YCSB, LMDB and
// PmemKV throughput on aged file systems.
func BenchmarkFig7AgedApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig7)
		ops := func(app, fs string) float64 { return field(b, rep, "OpsPerSec."+app, "FS", fs) }
		b.ReportMetric(ops("lmdb", "WineFS")/ops("lmdb", "NOVA"), "lmdb-WineFS/NOVA")
		metric(b, rep, "lmdb-WineFS/ext4", "VsExt4.lmdb", "FS", "WineFS")
		metric(b, rep, "pmemkv-WineFS/ext4", "VsExt4.pmemkv", "FS", "WineFS")
		metric(b, rep, "ycsbA-WineFS/ext4", "VsExt4.ycsb-A", "FS", "WineFS")
	}
}

// BenchmarkTable2PageFaults regenerates Table 2: page-fault counts per
// application per aged file system (ratios over WineFS).
func BenchmarkTable2PageFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig7)
		metric(b, rep, "lmdb-faults-ext4/WineFS", "VsWineFS.lmdb-fillseqbatch", "FS", "ext4-DAX")
		metric(b, rep, "lmdb-faults-NOVA/WineFS", "VsWineFS.lmdb-fillseqbatch", "FS", "NOVA")
		metric(b, rep, "lmdb-faults-WineFS", "Faults.lmdb-fillseqbatch", "FS", "WineFS")
	}
}

// BenchmarkFig8PARTLookup regenerates Figure 8: P-ART lookup latency
// distribution per file system.
func BenchmarkFig8PARTLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig8)
		metric(b, rep, "WineFS-median-ns", "MedianNS", "FS", "WineFS")
		metric(b, rep, "NOVA-median-ns", "MedianNS", "FS", "NOVA")
		metric(b, rep, "ext4-median-ns", "MedianNS", "FS", "ext4-DAX")
	}
}

// BenchmarkFig9PosixApps regenerates Figure 9: Filebench, PostgreSQL and
// WiredTiger on clean file systems.
func BenchmarkFig9PosixApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, func(cfg experiments.Config, rep *bench.Report) error {
			return experiments.Fig9(cfg, rep, []string{"ext4-DAX", "NOVA", "WineFS", "WineFS-relaxed"})
		})
		v := func(name, fs string) float64 { return field(b, rep, name, "FS", fs) }
		metric(b, rep, "varmail-WineFSr-ops/s", "Filebench.varmail", "FS", "WineFS-relaxed")
		metric(b, rep, "varmail-ext4-ops/s", "Filebench.varmail", "FS", "ext4-DAX")
		b.ReportMetric(v("PgbenchTPS", "WineFS")/v("PgbenchTPS", "NOVA"), "pgbench-WineFS/NOVA")
		b.ReportMetric(v("WTFill", "WineFS")/v("WTFill", "NOVA"), "wtfill-WineFS/NOVA")
	}
}

// BenchmarkFig10Scalability regenerates Figure 10: create/append/fsync/
// unlink throughput vs thread count.
func BenchmarkFig10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.Fig10)
		for _, p := range rep.Points {
			if p.Threads == 16 {
				b.ReportMetric(p.Info["ContendedKIOPS"], p.Labels["FS"]+"-kIOPS-16thr")
			}
		}
	}
}

// BenchmarkRecovery regenerates §5.2's recovery measurement: virtual
// recovery time vs file count, plus data-volume independence.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var last *bench.Point
		for _, p := range run(b, experiments.Recovery).Points {
			if _, ok := p.Exact["RecoveryNS"]; ok {
				last = p
			}
		}
		files, _ := strconv.Atoi(last.Labels["Files"])
		b.ReportMetric(last.Exact["RecoveryNS"]/1e3, "recovery-us")
		b.ReportMetric(float64(files), "files")
	}
}

// BenchmarkHPCProfile regenerates §4's Wang-HPC-profile fragmentation
// comparison at 50% utilisation.
func BenchmarkHPCProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.HPC)
		b.ReportMetric(field(b, rep, "AlignedFree", "FS", "ext4-DAX")*100, "ext4-aligned-pct")
		b.ReportMetric(field(b, rep, "AlignedFree", "FS", "WineFS")*100, "WineFS-aligned-pct")
	}
}

// BenchmarkCrashMonkey regenerates §5.2's crash-consistency result: every
// explored crash state recovers consistently.
func BenchmarkCrashMonkey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		states := 0
		for _, w := range crashmonkey.GenerateSeq1() {
			res := crashmonkey.Run(w, crashmonkey.Config{MaxSubsets: 64, Seed: 42})
			if len(res.Failures) > 0 {
				b.Fatalf("%s: %v", w.Name, res.Failures[0])
			}
			states += res.CrashStates
		}
		b.ReportMetric(float64(states), "crash-states")
	}
}

// BenchmarkAblationAlignment quantifies the paper's central design choice:
// WineFS with the aligned-extent pool disabled loses its aged hugepage
// advantage (DESIGN.md's design-choice ablation).
func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frac := map[bool]float64{}
		for _, ablate := range []bool{false, true} {
			dev := NewDevice(512 << 20)
			ctx := NewThread(1, 0)
			fs, err := MkfsWineFS(ctx, dev, WineFSOptions{CPUs: 4, AblateAlignment: ablate})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Age(ctx, fs, AgingConfig{TargetUtil: 0.7, ChurnFactor: 1, Seed: 5}); err != nil {
				b.Fatal(err)
			}
			frac[ablate] = alignedFreeFraction(fs)
		}
		b.ReportMetric(frac[false]*100, "aligned-pct")
		b.ReportMetric(frac[true]*100, "ablated-aligned-pct")
	}
}

// BenchmarkAblationPerCPUJournal quantifies the per-CPU-journal choice:
// the same metadata workload on 8 threads with per-CPU journals vs one
// shared journal.
func BenchmarkAblationPerCPUJournal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tput := map[bool]float64{}
		for _, ablate := range []bool{false, true} {
			dev := NewDevice(512 << 20)
			ctx := NewThread(1, 0)
			fs, err := MkfsWineFS(ctx, dev, WineFSOptions{CPUs: 8, AblateSingleJournal: ablate})
			if err != nil {
				b.Fatal(err)
			}
			v, err := scalabilityProbe(fs, ctx)
			if err != nil {
				b.Fatal(err)
			}
			tput[ablate] = v
		}
		b.ReportMetric(tput[false]/1000, "percpu-kIOPS")
		b.ReportMetric(tput[true]/1000, "single-journal-kIOPS")
	}
}

// BenchmarkNUMAHomeNode quantifies §3.6's NUMA policy: remote-write
// fraction and write time with the home-node routing off vs on.
func BenchmarkNUMAHomeNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := run(b, experiments.NUMA)
		b.ReportMetric(field(b, rep, "RemoteFrac", "Policy", "off")*100, "remote-pct-off")
		b.ReportMetric(field(b, rep, "RemoteFrac", "Policy", "on")*100, "remote-pct-on")
	}
}
