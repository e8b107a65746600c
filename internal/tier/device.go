// Package tier provides the slow second tier WineFS spills cold data to:
// an SSD-like device with per-command latency, per-byte bandwidth and a
// bounded command queue, but no byte-addressability — every access is
// charged at 4KiB-page granularity, the way a block device sees it.
//
// A tiered WineFS keeps all metadata and hot data on PM (pmem.Device) and
// routes cold extents to a SlowDevice (winefs/tier.go).
package tier

import (
	"repro/internal/pmem"
	"repro/internal/sim"
)

// PageSize is the slow device's I/O granularity: commands address whole
// 4KiB pages, never bytes — the defining difference from PM.
const PageSize = 4096

// The slow tier's prices, calibrated to NVMe flash: ~50µs random reads,
// ~15µs buffered writes, ~3 GB/s read / 2 GB/s write streaming. Roughly
// two decimal orders of magnitude slower than the Optane PM model for
// small accesses — the gap the tiering policy exists to hide.
const (
	// ReadLatNS / WriteLatNS are the per-command latencies: the fixed
	// cost of one I/O regardless of length (queueing, translation,
	// media access). Writes are cheaper than reads on SSDs with a
	// power-protected write buffer.
	ReadLatNS  = 50_000
	WriteLatNS = 15_000
	// ReadNSPerByte / WriteNSPerByte are the inverse bandwidths of the
	// transfer itself.
	ReadNSPerByte  = 0.33 // ~3 GB/s
	WriteNSPerByte = 0.5  // ~2 GB/s
)

// SlowConfig holds the shape of the simulated SSD tier.
type SlowConfig struct {
	// Size is the capacity in bytes (rounded up to a page multiple).
	Size int64
	// QueueDepth is the number of commands the device services
	// concurrently; excess commands queue in virtual time.
	QueueDepth int
}

// DefaultSlowConfig returns a size-byte device with a 16-deep queue.
func DefaultSlowConfig(size int64) SlowConfig {
	return SlowConfig{Size: size, QueueDepth: 16}
}

// SlowDevice simulates the SSD tier. Contents live in a sparse
// chunk-backed store (reusing the PM device's host-memory management via
// its uncharged accessors); every charged access books one of QueueDepth
// command channels for latency + transfer time, so a queue-depth worth of
// commands proceeds in parallel and anything beyond that waits.
//
// Durability model: the device has a power-protected write buffer, so a
// completed Write is durable and there is nothing to flush or fence. This
// is what makes crash reasoning for tier migration simple: the slow-tier copy is
// stable the moment it is written, and only the PM-side extent-map commit
// decides which copy a recovery sees.
type SlowDevice struct {
	cfg   SlowConfig
	store *pmem.Device
	ports []*sim.Resource
}

// NewSlow creates a slow device of the given shape.
func NewSlow(cfg SlowConfig) *SlowDevice {
	if cfg.Size <= 0 {
		cfg.Size = 64 << 20
	}
	cfg.Size = (cfg.Size + PageSize - 1) / PageSize * PageSize
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	// The backing store is pure host memory: a zeroed cost model (non-nil,
	// so NewWithConfig does not substitute the Optane defaults) makes its
	// charged paths free, and SlowDevice only uses the uncharged ones.
	d := &SlowDevice{
		cfg: cfg,
		store: pmem.NewWithConfig(pmem.Config{
			Size:  cfg.Size,
			Model: &pmem.CostModel{},
		}),
	}
	for i := 0; i < cfg.QueueDepth; i++ {
		d.ports = append(d.ports, &sim.Resource{})
	}
	return d
}

// Size is the device capacity in bytes.
func (d *SlowDevice) Size() int64 { return d.cfg.Size }

// Config returns the device's shape.
func (d *SlowDevice) Config() SlowConfig { return d.cfg }

// Release returns the backing store's chunks to the host pool.
func (d *SlowDevice) Release() { d.store.Release() }

// Snapshot copies the device contents (uncharged, host-side) into a
// device of their own, which the caller Releases. Crash harnesses pair it
// with the PM crash state: slow writes are durable on completion, so
// rewinding a run to an earlier point must rewind the slow store too or
// writes from the abandoned future would leak into the recovered past.
func (d *SlowDevice) Snapshot() *pmem.Device { return d.store.Snapshot() }

// Restore rewrites the device to an earlier Snapshot.
func (d *SlowDevice) Restore(src *pmem.Device) { d.store.Restore(src) }

// pageSpan returns the number of whole 4KiB pages the byte range
// [off, off+n) touches — the unit the device charges in.
func pageSpan(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	return last - first + 1
}

// charge books one command channel for the access and advances the
// thread's clock to its completion. The channel is chosen by the first
// page touched, so commands to different regions spread across the queue
// deterministically while same-page commands serialise.
func (d *SlowDevice) charge(ctx *sim.Ctx, off, n int64, write bool) {
	pages := pageSpan(off, n)
	if pages == 0 {
		return
	}
	bytes := pages * PageSize
	var hold int64
	if write {
		hold = WriteLatNS + int64(float64(bytes)*WriteNSPerByte)
	} else {
		hold = ReadLatNS + int64(float64(bytes)*ReadNSPerByte)
	}
	port := d.ports[(off/PageSize)%int64(len(d.ports))]
	port.Use(ctx, hold)
	if ctx.Counters != nil {
		if write {
			ctx.Counters.SlowWrites++
			ctx.Counters.SlowWriteBytes += bytes
		} else {
			ctx.Counters.SlowReads++
			ctx.Counters.SlowReadBytes += bytes
		}
	}
}

// Read is a charged read of len(buf) bytes.
func (d *SlowDevice) Read(ctx *sim.Ctx, buf []byte, off int64) {
	d.charge(ctx, off, int64(len(buf)), false)
	d.store.ReadAt(buf, off)
}

// Write is a charged write, durable on completion.
func (d *SlowDevice) Write(ctx *sim.Ctx, data []byte, off int64) {
	d.charge(ctx, off, int64(len(data)), true)
	d.store.WriteAt(data, off)
}

// Zero is charged like a write of n bytes (the command still
// transfers/updates whole pages on the device).
func (d *SlowDevice) Zero(ctx *sim.Ctx, off, n int64) {
	d.charge(ctx, off, n, true)
	d.store.ZeroRange(off, n)
}

// ReadAt is an uncharged read.
func (d *SlowDevice) ReadAt(buf []byte, off int64) { d.store.ReadAt(buf, off) }

// WriteAt is an uncharged write.
func (d *SlowDevice) WriteAt(data []byte, off int64) { d.store.WriteAt(data, off) }

// ZeroRange is an uncharged zero-fill.
func (d *SlowDevice) ZeroRange(off, n int64) { d.store.ZeroRange(off, n) }

// DiscardRange is uncharged: freed pages return their host backing.
func (d *SlowDevice) DiscardRange(off, n int64) { d.store.DiscardRange(off, n) }

// Cost returns the uncontended virtual-time cost of one n-byte access at
// off — the price a cache-miss pays when it has to go to this tier.
// Exposed for benchmark gates that assert cold reads really were charged
// slow-tier costs.
func (d *SlowDevice) Cost(off, n int64, write bool) int64 {
	bytes := pageSpan(off, n) * PageSize
	if bytes == 0 {
		return 0
	}
	if write {
		return WriteLatNS + int64(float64(bytes)*WriteNSPerByte)
	}
	return ReadLatNS + int64(float64(bytes)*ReadNSPerByte)
}
