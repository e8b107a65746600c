// Package perf holds the performance-event accounting used by every
// experiment: hardware-style counters (page faults, TLB misses, LLC misses,
// persistent-memory traffic) and latency histograms for CDF figures.
package perf

import (
	"fmt"
	"math"
	"reflect"
)

// Counters accumulates performance events for one simulated thread. Fields
// are plain int64s — a Counters value belongs to a single simulated thread
// and is never written concurrently. Aggregate across threads with Add.
type Counters struct {
	// Memory-mapped access events.
	PageFaults     int64 // faults taken on 4KiB base pages
	HugeFaults     int64 // faults taken on 2MiB hugepages
	SoftFaults     int64 // faults that only installed a PTE (no allocation)
	TLBMisses      int64
	TLBHits        int64
	LLCMisses      int64
	LLCHits        int64
	PageWalkNS     int64 // time spent walking page tables
	FaultNS        int64 // time spent in the fault handler
	CopyNS         int64 // time spent moving user data to/from PM
	ZeroNS         int64 // time spent zero-filling newly allocated pages
	PMReadBytes    int64
	PMWriteBytes   int64
	JournalBytes   int64 // bytes written to any journal/log
	JournalCommits int64
	JournalAborts  int64 // transactions rolled back via their undo log
	LockWaitNS     int64 // virtual time lost waiting on shared resources
	JournalNS      int64 // time spent appending/flushing/committing journal entries
	Syscalls       int64
	SyscallNS      int64 // time charged for syscall entry/exit
	AllocSplits    int64 // aligned extents broken up to serve small requests
	AllocSteals    int64 // allocations served from a remote CPU's pool
	CoWCopies      int64 // copy-on-write block copies
	GCWork         int64 // log-cleaning/garbage-collection block moves
	Rewrites       int64 // files reactively rewritten for alignment

	// Client page-cache events (internal/pagecache).
	CacheHits       int64 // data/attr requests served from the client cache
	CacheMisses     int64 // data/attr requests that went to the server
	CacheHitBytes   int64 // bytes served from cached pages
	CacheMissBytes  int64 // bytes fetched from the server on misses
	CacheFlushes    int64 // write-back flush batches
	CacheFlushBytes int64 // dirty bytes written back to the server
	CacheEvictions  int64 // pages dropped by LRU pressure
	CacheRevokes    int64 // leases revoked because of a conflicting access

	// Zero-copy mapping subsystem (internal/vmm) events.
	VMMMaps         int64 // mappings established (vmm.Map)
	VMMUnmaps       int64 // mappings torn down (vmm.Mapping.Close)
	VMMHugeFaults   int64 // mapping faults satisfied with a 2MiB hugepage
	VMMBaseFaults   int64 // mapping faults satisfied with a 4KiB base page
	VMMPromotions   int64 // base-faulted chunks later promoted huge (refault or explicit notify)
	VMMMsyncs       int64 // msync calls that reached the backing store
	VMMMsyncBytes   int64 // bytes made durable by msync
	VMMCowBreaks    int64 // private-mapping pages copied on first store
	VMMWindowRemaps int64 // window slides on mappings larger than the address budget

	// Online background defragmenter (internal/defrag) events.
	DefragPasses         int64 // defragmentation passes completed
	DefragChunksScanned  int64 // candidate 2MiB chunks examined
	DefragMigratedBlocks int64 // file blocks copied out of fragmented chunks
	DefragMigratedBytes  int64 // bytes moved by defrag migrations
	DefragRecovered2M    int64 // 2MiB-aligned free extents re-formed by migration
	DefragRewrites       int64 // queued fragmented files rewritten during a pass
	DefragRepromotions   int64 // live-mapping chunks re-promoted by notification
	DefragThrottleNS     int64 // idle virtual time injected by the bandwidth budget
	DefragSkippedBusy    int64 // candidates abandoned because the layout changed underneath
	DefragSkippedMeta    int64 // candidates skipped because metadata blocks pin the chunk

	// Tiered storage (internal/tier + winefs tier hooks) events.
	SlowReads           int64 // commands issued to the slow tier for reads
	SlowWrites          int64 // commands issued to the slow tier for writes
	SlowReadBytes       int64 // bytes transferred from the slow tier (page-rounded)
	SlowWriteBytes      int64 // bytes transferred to the slow tier (page-rounded)
	AllocSpillExtents   int64 // data allocations redirected from full/near-full PM to the slow tier
	AllocSpillBlocks    int64 // blocks those spilled allocations covered
	TierPasses          int64 // tier-migration passes completed
	TierDemotions       int64 // extents migrated PM -> slow
	TierDemotedBlocks   int64 // blocks those demotions moved
	TierPromotions      int64 // extents migrated slow -> PM by the pass policy
	TierPromotedBlocks  int64 // blocks those promotions moved
	TierFaultPromotions int64 // slow extents pulled up synchronously by an mmap fault
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// counterFields caches the reflected field list of Counters so Add and
// Fields never silently drop a newly added field: every exported int64
// field participates automatically. Any non-int64 field is a programming
// error caught at init.
var counterFields = func() []reflect.StructField {
	t := reflect.TypeOf(Counters{})
	fields := make([]reflect.StructField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("perf: Counters.%s is %s, want int64", f.Name, f.Type))
		}
		fields = append(fields, f)
	}
	return fields
}()

// Add accumulates o into c. Used to merge per-thread counters after a
// multi-threaded run. It is reflection-backed over every field of Counters,
// so a newly added counter can never be silently dropped from cross-thread
// aggregation.
func (c *Counters) Add(o *Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := range counterFields {
		f := cv.Field(i)
		f.SetInt(f.Int() + ov.Field(i).Int())
	}
}

// Sub removes o from c — the inverse of Add, used to isolate one phase's
// counters from a shared context by subtracting the snapshot taken at the
// phase boundary. Reflection-backed for the same can't-lag-the-struct
// reason.
func (c *Counters) Sub(o *Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := range counterFields {
		f := cv.Field(i)
		f.SetInt(f.Int() - ov.Field(i).Int())
	}
}

// Field is one named counter value, as enumerated by Fields.
type Field struct {
	Name  string
	Value int64
}

// Fields enumerates every counter as a (name, value) pair in struct order.
// Like Add it is reflection-backed, so monitoring exports (the Prometheus
// endpoint, winebench dumps) always cover the full counter set.
func (c *Counters) Fields() []Field {
	cv := reflect.ValueOf(c).Elem()
	out := make([]Field, len(counterFields))
	for i, f := range counterFields {
		out[i] = Field{Name: f.Name, Value: cv.Field(i).Int()}
	}
	return out
}

// TotalFaults is the count of all hard page faults, base and huge.
func (c *Counters) TotalFaults() int64 { return c.PageFaults + c.HugeFaults }

// String renders the most commonly inspected counters on one line.
func (c *Counters) String() string {
	return fmt.Sprintf("faults=%d(huge=%d) tlbMiss=%d llcMiss=%d pmW=%dB pmR=%dB jnl=%dB",
		c.PageFaults, c.HugeFaults, c.TLBMisses, c.LLCMisses,
		c.PMWriteBytes, c.PMReadBytes, c.JournalBytes)
}

// Histogram is a log-bucketed latency histogram supporting the quantile
// queries the paper's CDF figures need (Figures 4 and 8). Buckets grow
// geometrically from 1ns so that relative error stays bounded (~4%) from
// nanoseconds to seconds while memory stays constant.
type Histogram struct {
	buckets [bucketCount]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

const (
	bucketsPerOctave = 16
	octaves          = 40 // covers 1ns .. ~1100s
	bucketCount      = bucketsPerOctave * octaves
)

func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	f := math.Log2(float64(v))
	i := int(f * bucketsPerOctave)
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

// bucketValue returns a representative latency (geometric midpoint) for a
// bucket index.
func bucketValue(i int) int64 {
	return int64(math.Exp2((float64(i) + 0.5) / bucketsPerOctave))
}

// Record adds one sample with the given latency in nanoseconds.
func (h *Histogram) Record(ns int64) {
	h.buckets[bucketIndex(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the latency at quantile q in [0, 1]: the value of the
// ceil(q*count)-th smallest sample, bucket-quantized; Quantile(0) is the
// smallest sample. The result is clamped to the recorded range, so a
// bucket midpoint can never report a latency outside it.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the sample the quantile falls on, 1-based. ceil, not floor:
	// P99 of 100 samples is the 99th smallest, not the 100th.
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			return h.clamp(bucketValue(i))
		}
	}
	return h.max
}

// clamp bounds a bucket-midpoint estimate by the true recorded extremes.
func (h *Histogram) clamp(v int64) int64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Median is Quantile(0.5).
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// Merge accumulates o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// LatencySummary is the fixed-quantile digest of a histogram that
// monitoring surfaces (the winefsd stats endpoint, the serving-throughput
// baseline) report. All latencies are virtual nanoseconds.
type LatencySummary struct {
	Count  int64
	MeanNS float64
	P50NS  int64
	P90NS  int64
	P99NS  int64
	MaxNS  int64
}

// Summary digests the histogram into its commonly reported quantiles.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNS: h.Mean(),
		P50NS:  h.Median(),
		P90NS:  h.Quantile(0.9),
		P99NS:  h.Quantile(0.99),
		MaxNS:  h.Max(),
	}
}

// Series is a labelled sequence of (x, y) points — the common currency the
// experiment runners hand to the table printer.
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x, y) sample of an experiment series.
type Point struct {
	X float64
	Y float64
}
