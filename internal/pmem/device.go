// Package pmem simulates a byte-addressable persistent-memory device.
//
// The device stands in for the Intel Optane DC PMM the paper evaluates on
// (repro note: we have no PM hardware and user space cannot control DAX
// hugepage mappings, so the device — like the MMU above it — is simulated).
// It provides:
//
//   - a sparse, lazily allocated backing store (2MiB host chunks) so
//     multi-GiB simulated partitions don't consume multi-GiB of host RAM;
//   - virtual-time cost accounting for loads, stores, flushes and fences,
//     with a shared bandwidth resource per NUMA node;
//   - an optional store trace with fence epochs; a Recording (Record) holds
//     one operation's, and every crash-consistency test builds its crash
//     states — real in-flight reorderings — from one.
package pmem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

const (
	// ChunkSize is the granularity of lazy host allocation.
	ChunkSize = 2 << 20
	// CacheLine is the persistence granularity (clwb unit).
	CacheLine = 64

	// initPage is the granularity of lazy chunk initialization: each 4KiB
	// page of a pooled chunk is cleared (or wholly overwritten) at most
	// once, the first time an access touches it.
	initPage      = 4096
	initPageShift = 12
	pagesPerChunk = ChunkSize / initPage // 512 pages
	wordsPerChunk = pagesPerChunk / 64   // 8 bitmap words
)

// Device is a simulated persistent-memory module set. It is safe for
// concurrent use.
type Device struct {
	size  int64
	nodes int
	cpus  int
	model CostModel

	// chunks is the dense backing-store table, one slot per 2MiB chunk;
	// nil slots read as zero. Slots are atomic pointers so the hot
	// read/write paths dereference them lock-free — the former
	// map+RWMutex pair cost two atomic RMWs per 4KiB access and showed up
	// at several percent of host CPU on the scaling sweep.
	chunks  []atomic.Pointer[chunkBuf]
	nBacked atomic.Int64 // backed chunk count, for HostBytes

	// initPages is the per-chunk initialization bitmap, wordsPerChunk
	// words per chunk: bit p set means 4KiB page p of the chunk holds
	// real content (written or zeroed); a clear bit means the page still
	// holds stale pool garbage and logically reads as zero. Pooled chunks
	// are installed dirty and pages initialize lazily — eagerly clearing
	// 2MiB on first touch made memclr 15%% of scaling-sweep CPU, and a
	// single watermark re-cleared ~512KiB gaps every time the journal
	// region was dropped and its mid-chunk header rewritten (4GiB of
	// memclr per sweep). Fully overwritten pages flip their bit with one
	// atomic OR and are never cleared at all; only partial first touches
	// take the stripe lock in initMu and clear the uncovered remainder.
	initPages []atomic.Uint64
	initMu    [64]sync.Mutex

	// snapMu makes Snapshot/Restore atomic with respect to content
	// mutations: mutators hold it shared for the duration of their byte
	// copies, Snapshot/Restore hold it exclusively. Without it a snapshot
	// taken while another goroutine streams a write (the replication
	// resync path snapshots a live primary) could capture a half-applied
	// store. Mutators release it before invoking the write observer, so an
	// observer may take locks that a snapshot caller holds. Every device
	// pays the shared acquisition, whether or not it is ever snapshotted.
	snapMu sync.RWMutex

	// port is the per-NUMA-node device port: reads and writes share one
	// calendar (mixed read/write traffic interferes on Optane, which is
	// what makes background defragmentation steal 25-40%% of foreground
	// bandwidth in §4's experiment).
	port        []*sim.Resource
	readNSPerB  float64
	writeNSPerB float64

	traceMu sync.Mutex
	tracing bool
	// tracingOn mirrors tracing so the per-store fast path is one atomic
	// load instead of a mutex round trip (record was ~2%% of sweep CPU
	// with tracing off).
	tracingOn atomic.Bool
	epoch     int
	trace     []Store

	// fault holds media-fault state (poison map, fault plan); lazily
	// allocated so fault-free devices pay nothing. See fault.go.
	faultOnce sync.Once
	fault     *faultState

	// obs, when set, sees every content mutation (WriteAt/ZeroRange/
	// DiscardRange) after it lands. internal/cluster taps this to stream a
	// primary's writes to replicas. Restore is exempt: it rewrites the
	// device wholesale (crash-image injection), which is not a store.
	obs atomic.Pointer[observerBox]
}

// WriteObserver sees every device content mutation. Callbacks run on the
// mutating goroutine after the store landed, outside the device locks; an
// implementation must copy data if it keeps it.
type WriteObserver interface {
	ObserveWrite(off int64, data []byte)
	ObserveZero(off, n int64)
	ObserveDiscard(off, n int64)
}

// observerBox wraps the interface so it fits an atomic.Pointer.
type observerBox struct{ obs WriteObserver }

// SetWriteObserver installs (or, with nil, removes) the device's write
// observer. Only one observer is supported; installing replaces.
func (d *Device) SetWriteObserver(obs WriteObserver) {
	if obs == nil {
		d.obs.Store(nil)
		return
	}
	d.obs.Store(&observerBox{obs: obs})
}

func (d *Device) observer() WriteObserver {
	if b := d.obs.Load(); b != nil {
		return b.obs
	}
	return nil
}

// Config controls device construction.
type Config struct {
	// Size is the device capacity in bytes. Rounded up to a chunk multiple.
	Size int64
	// Nodes is the number of NUMA nodes (default 1).
	Nodes int
	// CPUs is the number of logical CPUs that address the device; used to
	// map a Ctx's CPU to a NUMA node (default 8).
	CPUs int
	// Model overrides the cost model; zero value means DefaultModel.
	Model *CostModel
}

// New creates a device of the given size with the default model and a
// single NUMA node.
func New(size int64) *Device {
	return NewWithConfig(Config{Size: size})
}

// NewWithConfig creates a device from cfg.
func NewWithConfig(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("pmem: non-positive device size")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 8
	}
	m := DefaultModel()
	if cfg.Model != nil {
		m = *cfg.Model
	}
	size := (cfg.Size + ChunkSize - 1) / ChunkSize * ChunkSize
	d := &Device{
		size:      size,
		nodes:     cfg.Nodes,
		cpus:      cfg.CPUs,
		model:     m,
		chunks:    make([]atomic.Pointer[chunkBuf], size/ChunkSize),
		initPages: make([]atomic.Uint64, size/ChunkSize*wordsPerChunk),
	}
	for i := 0; i < cfg.Nodes; i++ {
		d.port = append(d.port, &sim.Resource{})
	}
	if m.ReadBandwidth > 0 {
		d.readNSPerB = 1e9 / (m.ReadBandwidth / float64(cfg.Nodes))
	}
	if m.WriteBandwidth > 0 {
		d.writeNSPerB = 1e9 / (m.WriteBandwidth / float64(cfg.Nodes))
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Nodes returns the NUMA node count.
func (d *Device) Nodes() int { return d.nodes }

// Model returns the device's cost model.
func (d *Device) Model() *CostModel { return &d.model }

// NodeOf returns the NUMA node holding byte offset off: the address space
// is striped across nodes in equal contiguous halves, as with interleaved
// namespaces per socket.
func (d *Device) NodeOf(off int64) int {
	if d.nodes == 1 {
		return 0
	}
	n := int(off / (d.size / int64(d.nodes)))
	if n >= d.nodes {
		n = d.nodes - 1
	}
	return n
}

// NodeOfCPU maps a logical CPU to its NUMA node.
func (d *Device) NodeOfCPU(cpu int) int {
	if d.nodes == 1 {
		return 0
	}
	per := d.cpus / d.nodes
	if per == 0 {
		per = 1
	}
	n := cpu / per
	if n >= d.nodes {
		n = d.nodes - 1
	}
	return n
}

func (d *Device) checkRange(off, n int64) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside device of size %d", off, off+n, d.size))
	}
}

// chunkBuf is one 2MiB backing chunk. A fixed-size array type so the host
// chunk pool hands out typed pointers.
type chunkBuf [ChunkSize]byte

// chunkPool recycles 2MiB host chunks across devices. Scratch devices are
// born and die by the hundred in campaigns and bench sweeps; without the
// pool every death hands its chunks to the GC and every birth re-faults
// and re-clears fresh spans (mallocgc→memclr was >10% of sweep CPU).
// Chunks in the pool hold stale bytes: every Get site must zero whatever
// part of the chunk it does not immediately overwrite.
var chunkPool = sync.Pool{New: func() any { return new(chunkBuf) }}

// allocChunk installs a pooled chunk at index i. The chunk arrives dirty;
// the empty-slot invariant (nil slot ⇒ init bitmap all zero, maintained by
// the constructor, dropChunk and Release) means every page is marked
// uninitialized when the pointer publishes, and pages initialize lazily
// through claimWrite / readInit. Losing a CAS race returns the winner's
// chunk.
func (d *Device) allocChunk(i int64) *chunkBuf {
	c := chunkPool.Get().(*chunkBuf)
	if !d.chunks[i].CompareAndSwap(nil, c) {
		chunkPool.Put(c)
		return d.chunks[i].Load()
	}
	d.nBacked.Add(1)
	return c
}

// claimWrite marks the pages covering [in, end) of chunk i initialized
// ahead of the caller's copy. Fully covered pages only flip their bitmap
// bit (the copy overwrites every byte); a partially covered head or tail
// page on its first touch takes the stripe lock and zeroes the bytes the
// copy will not reach. Bits are set BEFORE the caller copies, so a
// concurrent claim of a neighboring range never clears bytes an in-flight
// copy already wrote: each page is zeroed at most once, while its bit is
// still clear. Marking full pages skips the identity check that guards
// the drop/realloc race — whole-chunk drops are only issued by the
// exclusive owner of the covered blocks (journal truncation, block free),
// which does not race them with writes to the same range.
func (d *Device) claimWrite(i int64, c *chunkBuf, in, end int64) {
	p0 := in >> initPageShift
	p1 := (end - 1) >> initPageShift
	fullLo, fullHi := p0, p1
	if in&(initPage-1) != 0 {
		d.initPartialPage(i, c, p0, in, end)
		fullLo = p0 + 1
	}
	if end&(initPage-1) != 0 && p1 >= fullLo {
		d.initPartialPage(i, c, p1, in, end)
		fullHi = p1 - 1
	}
	if fullLo <= fullHi {
		d.markPages(i, fullLo, fullHi)
	}
}

// initPartialPage initializes page p of chunk i for a write covering
// [in, end): the slices of the page outside the write are zeroed and the
// page's bit is set. No-op if the page is already initialized or the
// chunk was swapped out (identity check under the stripe lock).
func (d *Device) initPartialPage(i int64, c *chunkBuf, p, in, end int64) {
	w := &d.initPages[i*wordsPerChunk+p>>6]
	bit := uint64(1) << (p & 63)
	if w.Load()&bit != 0 {
		return
	}
	mu := &d.initMu[i&63]
	mu.Lock()
	if d.chunks[i].Load() == c && w.Load()&bit == 0 {
		ps := p << initPageShift
		pe := ps + initPage
		if ps < in {
			zero(c[ps:in])
		}
		if end < pe {
			zero(c[end:pe])
		}
		orBits(w, bit)
	}
	mu.Unlock()
}

// orBits sets mask bits in w (atomic.Uint64.Or needs go1.23; the module
// pins go1.22, so CAS by hand).
func orBits(w *atomic.Uint64, mask uint64) {
	for {
		old := w.Load()
		if old&mask == mask || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// markPages sets the init bits for pages [lo, hi] of chunk i, word-wise.
func (d *Device) markPages(i, lo, hi int64) {
	for lo <= hi {
		bitLo := lo & 63
		n := 64 - bitLo
		if rem := hi - lo + 1; rem < n {
			n = rem
		}
		mask := (^uint64(0) >> (64 - n)) << bitLo
		w := &d.initPages[i*wordsPerChunk+lo>>6]
		if w.Load()&mask != mask {
			orBits(w, mask)
		}
		lo += n
	}
}

// pagesSet reports whether every init bit in pages [p0, p1] of chunk i is
// set — the fast path for reads of fully initialized ranges.
func (d *Device) pagesSet(i, p0, p1 int64) bool {
	for p0 <= p1 {
		bitLo := p0 & 63
		n := 64 - bitLo
		if rem := p1 - p0 + 1; rem < n {
			n = rem
		}
		mask := (^uint64(0) >> (64 - n)) << bitLo
		if d.initPages[i*wordsPerChunk+p0>>6].Load()&mask != mask {
			return false
		}
		p0 += n
	}
	return true
}

// readInit copies [in, in+len(dst)) of chunk i into dst, substituting
// zeros for uninitialized pages. The chunk itself is never mutated, so
// the read path takes no locks.
func (d *Device) readInit(i int64, c *chunkBuf, dst []byte, in int64) {
	end := in + int64(len(dst))
	p0 := in >> initPageShift
	p1 := (end - 1) >> initPageShift
	if d.pagesSet(i, p0, p1) {
		copy(dst, c[in:end])
		return
	}
	for p := p0; p <= p1; p++ {
		ps := p << initPageShift
		lo := max(in, ps)
		hi := min(end, ps+initPage)
		if d.initPages[i*wordsPerChunk+p>>6].Load()&(1<<(p&63)) != 0 {
			copy(dst[lo-in:hi-in], c[lo:hi])
		} else {
			zero(dst[lo-in : hi-in])
		}
	}
}

// zeroInit physically clears the initialized pages of [in, end) in chunk
// i; uninitialized pages already read as zero and are left untouched.
func (d *Device) zeroInit(i int64, c *chunkBuf, in, end int64) {
	p0 := in >> initPageShift
	p1 := (end - 1) >> initPageShift
	for p := p0; p <= p1; p++ {
		ps := p << initPageShift
		lo := max(in, ps)
		hi := min(end, ps+initPage)
		if d.initPages[i*wordsPerChunk+p>>6].Load()&(1<<(p&63)) != 0 {
			zero(c[lo:hi])
		}
	}
}

// materialize zeroes every uninitialized page of chunk i and marks the
// whole chunk initialized, so raw chunk bytes equal device contents
// (image serialization wants the physical bytes).
func (d *Device) materialize(i int64, c *chunkBuf) {
	if d.pagesSet(i, 0, pagesPerChunk-1) {
		return
	}
	mu := &d.initMu[i&63]
	mu.Lock()
	if d.chunks[i].Load() == c {
		for w := int64(0); w < wordsPerChunk; w++ {
			word := &d.initPages[i*wordsPerChunk+w]
			for rest := ^word.Load(); rest != 0; rest &= rest - 1 {
				ps := (w<<6 + int64(bits.TrailingZeros64(rest))) << initPageShift
				zero(c[ps : ps+initPage])
			}
			word.Store(^uint64(0))
		}
	}
	mu.Unlock()
}

// zero clears b (compiles to a single memclr).
func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// dropChunk clears slot i, releasing its chunk count. The chunk itself is
// NOT returned to the pool: a concurrent reader may still hold the slice,
// and handing it to another device would let foreign bytes appear under
// that reader. The GC reclaims it; Release recycles chunks wholesale when
// the device as a whole is done. The stripe lock orders the bitmap reset
// against in-flight partial-page initialization on the dying chunk,
// restoring the empty-slot invariant (nil slot ⇒ init bitmap all zero).
func (d *Device) dropChunk(i int64) {
	mu := &d.initMu[i&63]
	mu.Lock()
	if d.chunks[i].Swap(nil) != nil {
		d.nBacked.Add(-1)
	}
	for w := int64(0); w < wordsPerChunk; w++ {
		d.initPages[i*wordsPerChunk+w].Store(0)
	}
	mu.Unlock()
}

// Release returns every backed chunk to the host chunk pool and empties
// the device. Call it when a scratch device (a campaign run's image, a
// bench point's file system) is definitely done: the device must not be
// used again, and no reads may be in flight.
func (d *Device) Release() {
	for i := range d.chunks {
		if c := d.chunks[i].Swap(nil); c != nil {
			d.nBacked.Add(-1)
			chunkPool.Put(c)
		}
		for w := 0; w < wordsPerChunk; w++ {
			d.initPages[i*wordsPerChunk+w].Store(0)
		}
	}
}

// ReadAt copies device bytes at off into buf without charging virtual time.
// Unbacked (never-written) regions read as zero.
func (d *Device) ReadAt(buf []byte, off int64) {
	d.checkRange(off, int64(len(buf)))
	for len(buf) > 0 {
		base := off / ChunkSize * ChunkSize
		in := off - base
		n := int64(len(buf))
		if in+n > ChunkSize {
			n = ChunkSize - in
		}
		if c := d.chunks[base/ChunkSize].Load(); c != nil {
			d.readInit(base/ChunkSize, c, buf[:n], in)
		} else {
			zero(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// WriteAt stores data at off without charging virtual time, recording the
// store in the crash trace when tracing is enabled.
func (d *Device) WriteAt(data []byte, off int64) {
	d.checkRange(off, int64(len(data)))
	d.record(off, data)
	d.snapMu.RLock()
	if d.fault == nil {
		// No fault injection armed: the store persists whole and there is
		// no poison to clear. Skipping tearStore keeps this path free of
		// its per-call segment-slice allocation.
		d.writeRaw(data, off)
	} else {
		for _, seg := range d.tearStore(off, data) {
			d.writeRaw(seg.Data, seg.Off)
			// A store re-arms every line it fully overwrites (hardware
			// clears poison on a full-line write).
			d.clearPoisonCovered(seg.Off, int64(len(seg.Data)))
		}
	}
	d.snapMu.RUnlock()
	// The observer sees the intended store, not the torn segments: a
	// replica receives what the CPU issued, while the local media may have
	// kept only part of it — exactly the asymmetry a crash can create.
	if obs := d.observer(); obs != nil {
		obs.ObserveWrite(off, data)
	}
}

// writeRaw copies data into the backing store with no recording, tearing
// or poison bookkeeping.
func (d *Device) writeRaw(data []byte, off int64) {
	rest := data
	pos := off
	for len(rest) > 0 {
		base := pos / ChunkSize * ChunkSize
		in := pos - base
		n := int64(len(rest))
		if in+n > ChunkSize {
			n = ChunkSize - in
		}
		i := base / ChunkSize
		c := d.chunks[i].Load()
		if c == nil {
			c = d.allocChunk(i)
		}
		d.claimWrite(i, c, in, in+n)
		copy(c[in:in+n], rest[:n])
		rest = rest[n:]
		pos += n
	}
}

// ZeroRange zero-fills [off, off+n) without charging virtual time.
func (d *Device) ZeroRange(off, n int64) {
	d.checkRange(off, n)
	origOff, origN := off, n
	if d.isTracing() {
		d.record(off, make([]byte, n))
	}
	d.clearPoisonCovered(off, n)
	d.snapMu.RLock()
	for n > 0 {
		base := off / ChunkSize * ChunkSize
		in := off - base
		m := n
		if in+m > ChunkSize {
			m = ChunkSize - in
		}
		if in == 0 && m == ChunkSize {
			// Whole chunk: drop the backing store, reads return zero.
			d.dropChunk(base / ChunkSize)
		} else if c := d.chunks[base/ChunkSize].Load(); c != nil {
			d.zeroInit(base/ChunkSize, c, in, in+m)
		}
		off += m
		n -= m
	}
	d.snapMu.RUnlock()
	if obs := d.observer(); obs != nil {
		obs.ObserveZero(origOff, origN)
	}
}

// DiscardRange tells the device the contents of [off, off+n) no longer
// matter (the blocks were freed). Fully covered chunks release host memory.
// Contents of a discarded range are undefined (currently read back zero for
// dropped chunks, unchanged otherwise), matching freed-block semantics.
func (d *Device) DiscardRange(off, n int64) {
	d.checkRange(off, n)
	first := (off + ChunkSize - 1) / ChunkSize * ChunkSize
	last := (off + n) / ChunkSize * ChunkSize
	if first >= last {
		return
	}
	d.snapMu.RLock()
	for base := first; base < last; base += ChunkSize {
		d.dropChunk(base / ChunkSize)
	}
	d.snapMu.RUnlock()
	if obs := d.observer(); obs != nil {
		obs.ObserveDiscard(off, n)
	}
}

// HostBytes reports how much host memory currently backs the device.
func (d *Device) HostBytes() int64 {
	return d.nBacked.Load() * ChunkSize
}

// --- cost-charging accessors -------------------------------------------

func (d *Device) remote(ctx *sim.Ctx, off int64) bool {
	return d.nodes > 1 && d.NodeOf(off) != d.NodeOfCPU(ctx.CPU)
}

func (d *Device) scale(ctx *sim.Ctx, off int64, ns int64) int64 {
	if d.remote(ctx, off) {
		return int64(float64(ns) * d.model.RemoteFactor)
	}
	return ns
}

// Read copies device bytes into buf, charging read latency/bandwidth.
func (d *Device) Read(ctx *sim.Ctx, buf []byte, off int64) {
	d.ReadAt(buf, off)
	d.chargeRead(ctx, off, int64(len(buf)))
}

// Write stores data, charging write latency/bandwidth. The store is NOT
// yet durable; durability requires Flush + Fence (FS code models clwb/sfence
// explicitly).
func (d *Device) Write(ctx *sim.Ctx, data []byte, off int64) {
	d.WriteAt(data, off)
	d.chargeWrite(ctx, off, int64(len(data)))
}

// Zero zero-fills a range, charging streaming-store cost. Used for page
// zeroing in fault handlers and fallocate paths; time lands in ZeroNS.
// Hugepage-sized-or-larger zeroes get their own span — they dominate
// first-touch latency and are exactly what a trace of an aged-vs-fresh
// mount should make visible; smaller zeroes stay span-free to bound
// tracing overhead on the hot path.
func (d *Device) Zero(ctx *sim.Ctx, off, n int64) {
	if n >= ChunkSize {
		sp := ctx.StartSpan("pmem.zero")
		defer ctx.EndSpan(sp)
	}
	d.ZeroRange(off, n)
	ns := d.scale(ctx, off, int64(float64(n)*d.model.ZeroNSPerByte))
	ctx.Advance(ns)
	ctx.Counters.ZeroNS += ns
	ctx.Counters.PMWriteBytes += n
	d.TransferWrite(ctx, off, n)
}

func (d *Device) chargeRead(ctx *sim.Ctx, off, n int64) {
	if n <= 0 {
		return
	}
	ctx.Counters.PMReadBytes += n
	if n <= 4*CacheLine {
		lines := (n + CacheLine - 1) / CacheLine
		ctx.Advance(d.scale(ctx, off, d.model.ReadLat64+(lines-1)*d.model.ReadLat64/4))
		return
	}
	local := d.model.ReadLat64 + int64(float64(n)*d.model.CopyReadNSPerByte)
	ns := d.scale(ctx, off, local)
	ctx.Advance(ns)
	ctx.Counters.CopyNS += ns
	d.TransferRead(ctx, off, n)
}

func (d *Device) chargeWrite(ctx *sim.Ctx, off, n int64) {
	if n <= 0 {
		return
	}
	ctx.Counters.PMWriteBytes += n
	if n <= 4*CacheLine {
		lines := (n + CacheLine - 1) / CacheLine
		ctx.Advance(d.scale(ctx, off, d.model.WriteLat64+(lines-1)*d.model.WriteLat64/4))
		return
	}
	local := d.model.WriteLat64 + int64(float64(n)*d.model.CopyWriteNSPerByte)
	ns := d.scale(ctx, off, local)
	ctx.Advance(ns)
	ctx.Counters.CopyNS += ns
	d.TransferWrite(ctx, off, n)
}

// transferQuantumNS bounds a single port occupation: the memory bus
// interleaves concurrent transfers at cache-line granularity, so a bulk
// transfer must not monopolise a contiguous calendar interval (that would
// penalise large transfers with spurious queueing).
const transferQuantumNS = 700

func (d *Device) transfer(ctx *sim.Ctx, off int64, hold int64) {
	// All quanta book under one port-lock acquisition; bit-identical to the
	// former per-quantum Use loop (see sim.Resource.UseQuanta).
	d.port[d.NodeOf(off)].UseQuanta(ctx, hold, transferQuantumNS)
}

// TransferRead occupies the device port for an n-byte read at off without
// moving data — used by the MMU's mmap paths, which do their own byte
// movement.
func (d *Device) TransferRead(ctx *sim.Ctx, off, n int64) {
	if n <= 0 || d.readNSPerB == 0 {
		return
	}
	d.transfer(ctx, off, int64(float64(n)*d.readNSPerB))
}

// TransferWrite occupies the device port for an n-byte write at off.
func (d *Device) TransferWrite(ctx *sim.Ctx, off, n int64) {
	if n <= 0 || d.writeNSPerB == 0 {
		return
	}
	d.transfer(ctx, off, int64(float64(n)*d.writeNSPerB))
}

// Flush models clwb over the cache lines covering [off, off+n).
func (d *Device) Flush(ctx *sim.Ctx, off, n int64) {
	if n <= 0 {
		return
	}
	lines := (off+n+CacheLine-1)/CacheLine - off/CacheLine
	// clwb issues overlap; charge full latency for the first line and a
	// pipelined fraction for the rest.
	ctx.Advance(d.model.FlushLat + (lines-1)*d.model.FlushLat/8)
}

// Fence models sfence and advances the crash-trace epoch: stores recorded
// before the fence can no longer reorder with stores after it.
func (d *Device) Fence(ctx *sim.Ctx) {
	ctx.Advance(d.model.FenceLat)
	d.traceMu.Lock()
	if d.tracing {
		d.epoch++
	}
	d.traceMu.Unlock()
	d.advancePlanEpoch()
}

// --- crash tracing -------------------------------------------------------

// Store is one recorded device store, tagged with the fence epoch it was
// issued in. Stores sharing an epoch were in flight together and may
// persist in any subset/order at a crash.
type Store struct {
	Off   int64
	Data  []byte
	Epoch int
}

// StartTrace begins recording stores. A caller that wants to reconstruct
// crash states uses Record, which snapshots the device first.
func (d *Device) StartTrace() {
	d.traceMu.Lock()
	d.tracing = true
	d.tracingOn.Store(true)
	d.epoch = 0
	d.trace = nil
	d.traceMu.Unlock()
}

// StopTrace ends recording and returns the trace.
func (d *Device) StopTrace() []Store {
	d.traceMu.Lock()
	t := d.trace
	d.tracing = false
	d.tracingOn.Store(false)
	d.trace = nil
	d.traceMu.Unlock()
	return t
}

func (d *Device) isTracing() bool {
	return d.tracingOn.Load()
}

func (d *Device) record(off int64, data []byte) {
	if !d.tracingOn.Load() {
		// A store racing a StartTrace may miss the trace; it linearizes
		// before the trace began, exactly as if it had taken the lock
		// first.
		return
	}
	d.traceMu.Lock()
	if d.tracing {
		cp := make([]byte, len(data))
		copy(cp, data)
		d.trace = append(d.trace, Store{Off: off, Data: cp, Epoch: d.epoch})
	}
	d.traceMu.Unlock()
}

// Snapshot captures the device's current contents. Intended for the small
// devices used in crash tests.
func (d *Device) Snapshot() *Image {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	img := &Image{size: d.size, chunks: make(map[int64][]byte, d.nBacked.Load())}
	for i := range d.chunks {
		if c := d.chunks[i].Load(); c != nil {
			cp := make([]byte, ChunkSize)
			// make returned zeroed memory; only initialized pages hold
			// content (snapMu is held exclusively, so the bitmap is
			// stable).
			for w := int64(0); w < wordsPerChunk; w++ {
				set := d.initPages[int64(i)*wordsPerChunk+w].Load()
				for ; set != 0; set &= set - 1 {
					ps := (w<<6 + int64(bits.TrailingZeros64(set&-set))) << initPageShift
					copy(cp[ps:ps+initPage], c[ps:ps+initPage])
				}
			}
			img.chunks[int64(i)*ChunkSize] = cp
		}
	}
	return img
}

// Restore overwrites the device's contents from a snapshot.
func (d *Device) Restore(img *Image) {
	if img.size != d.size {
		panic("pmem: restoring snapshot of different size")
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	for i := range d.chunks {
		base := int64(i) * ChunkSize
		src, ok := img.chunks[base]
		if !ok {
			d.dropChunk(int64(i))
			continue
		}
		c := d.chunks[i].Load()
		if c == nil {
			c = d.allocChunk(int64(i))
		}
		// The full-chunk copy initializes everything.
		copy(c[:], src)
		for w := 0; w < wordsPerChunk; w++ {
			d.initPages[i*wordsPerChunk+w].Store(^uint64(0))
		}
	}
}

// Image is a point-in-time copy of device contents.
type Image struct {
	size   int64
	chunks map[int64][]byte
}

// Apply replays the given stores onto the image in order.
func (img *Image) Apply(stores []Store) {
	for _, s := range stores {
		rest := s.Data
		pos := s.Off
		for len(rest) > 0 {
			base := pos / ChunkSize * ChunkSize
			in := pos - base
			n := int64(len(rest))
			if in+n > ChunkSize {
				n = ChunkSize - in
			}
			c := img.chunks[base]
			if c == nil {
				c = make([]byte, ChunkSize)
				img.chunks[base] = c
			}
			copy(c[in:in+n], rest[:n])
			rest = rest[n:]
			pos += n
		}
	}
}

// Size returns the imaged device's capacity in bytes.
func (img *Image) Size() int64 { return img.size }

// ForEachChunk visits every backed chunk in ascending offset order. Unbacked
// regions (which read as zero) are skipped — a consumer reconstructing the
// image should start from a zeroed device. The data slice is the image's own
// backing store; callers must not retain or mutate it.
func (img *Image) ForEachChunk(f func(off int64, data []byte)) {
	offs := make([]int64, 0, len(img.chunks))
	for base := range img.chunks {
		offs = append(offs, base)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, base := range offs {
		f(base, img.chunks[base])
	}
}

// Diffs compares img with other chunk by chunk in ascending offset order (a
// chunk one of them lacks reads as zeros) and calls fn with the span of
// each chunk that differs, from its first differing byte to its last. It
// stops when fn returns false.
func (img *Image) Diffs(other *Image, fn func(off, n int64) bool) {
	offs := make([]int64, 0, len(img.chunks)+len(other.chunks))
	for base := range img.chunks {
		offs = append(offs, base)
	}
	for base := range other.chunks {
		if img.chunks[base] == nil {
			offs = append(offs, base)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	zero := make([]byte, ChunkSize)
	for _, base := range offs {
		x, y := img.chunks[base], other.chunks[base]
		if x == nil {
			x = zero
		}
		if y == nil {
			y = zero
		}
		if bytes.Equal(x, y) {
			continue
		}
		lo, hi := 0, len(x)
		for x[lo] == y[lo] {
			lo++
		}
		for x[hi-1] == y[hi-1] {
			hi--
		}
		if !fn(base+int64(lo), int64(hi-lo)) {
			return
		}
	}
}

// Clone returns a deep copy of the image.
func (img *Image) Clone() *Image {
	cp := &Image{size: img.size, chunks: make(map[int64][]byte, len(img.chunks))}
	for base, c := range img.chunks {
		b := make([]byte, ChunkSize)
		copy(b, c)
		cp.chunks[base] = b
	}
	return cp
}
