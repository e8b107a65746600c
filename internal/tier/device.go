// Package tier provides the slow second tier WineFS spills cold data to:
// an SSD-like device with per-command latency, per-byte bandwidth and a
// bounded command queue, but no byte-addressability — every access is
// charged at 4KiB-page granularity, the way a block device sees it.
//
// A tiered WineFS keeps all metadata and hot data on PM (pmem.Device) and
// routes cold extents to a SlowDevice (winefs/tier.go). The device keeps
// its contents in 4KiB pages of host memory, its own I/O unit, and backs
// no page that reads as zeros.
package tier

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

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

// SlowDevice simulates the SSD tier. Contents live in a table of 4KiB
// pages of host memory, one slot per device page; every charged access
// books one of QueueDepth command channels for latency + transfer time, so
// a queue-depth worth of commands proceeds in parallel and anything beyond
// that waits.
//
// Durability model: the device has a power-protected write buffer, so a
// completed Write is durable and there is nothing to flush or fence. This
// is what makes crash reasoning for tier migration simple: the slow-tier copy is
// stable the moment it is written, and only the PM-side extent-map commit
// decides which copy a recovery sees.
type SlowDevice struct {
	cfg   SlowConfig
	pages []atomic.Pointer[page]
	ports []*sim.Resource
}

// page is the host backing of one device page. A nil slot reads as
// zeros, and nothing backs a page of zeros: a store of zeros into a nil
// slot backs nothing, and a whole page stored or cleared to zeros gives
// its page up. Pages go to the GC when given up, since a concurrent reader
// may still hold one; Release and Restore, which run with the device idle,
// hand theirs to pagePool.
type page [PageSize]byte

// pagePool recycles pages across devices, as pmem's chunk pool recycles
// chunks: a bench sweep or a crash campaign builds a slow device per run,
// and without the pool every run re-allocates and re-clears what the last
// one just dropped. Pooled pages hold stale bytes: a page is filled whole
// before it is published.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// zeroPage is what the zero test compares a store against.
var zeroPage page

// NewSlow creates a slow device of the given shape.
func NewSlow(cfg SlowConfig) *SlowDevice {
	if cfg.Size <= 0 {
		cfg.Size = 64 << 20
	}
	cfg.Size = (cfg.Size + PageSize - 1) / PageSize * PageSize
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	d := &SlowDevice{cfg: cfg, pages: make([]atomic.Pointer[page], cfg.Size/PageSize)}
	for i := 0; i < cfg.QueueDepth; i++ {
		d.ports = append(d.ports, &sim.Resource{})
	}
	return d
}

// Size is the device capacity in bytes.
func (d *SlowDevice) Size() int64 { return d.cfg.Size }

// Release hands every backed page to the page pool and empties the
// device. Call it when the device is done: it must not be used again, and
// no access may be in flight.
func (d *SlowDevice) Release() {
	for i := range d.pages {
		if p := d.pages[i].Swap(nil); p != nil {
			pagePool.Put(p)
		}
	}
}

// Snapshot copies the device contents (uncharged, host-side) into a
// device of their own, which the caller Releases. Crash harnesses pair it
// with the PM crash state: slow writes are durable on completion, so
// rewinding a run to an earlier point must rewind the slow store too or
// writes from the abandoned future would leak into the recovered past.
// No store may be in flight on d.
func (d *SlowDevice) Snapshot() *SlowDevice {
	cp := NewSlow(d.cfg)
	cp.Restore(d)
	return cp
}

// Restore rewrites the device to an earlier Snapshot: a page src does not
// back is given up, and one it does is copied. Neither device may be in
// use during the call.
func (d *SlowDevice) Restore(src *SlowDevice) {
	if src.cfg.Size != d.cfg.Size {
		panic("tier: restoring a device of different size")
	}
	for i := range d.pages {
		sp := src.pages[i].Load()
		if sp == nil {
			if p := d.pages[i].Swap(nil); p != nil {
				pagePool.Put(p)
			}
			continue
		}
		p := d.pages[i].Load()
		if p == nil {
			p = pagePool.Get().(*page)
			d.pages[i].Store(p)
		}
		*p = *sp
	}
}

func (d *SlowDevice) checkRange(off, n int64) {
	if off < 0 || n < 0 || off+n > d.cfg.Size {
		panic(fmt.Sprintf("tier: access [%d,%d) outside device of size %d", off, off+n, d.cfg.Size))
	}
}

// readAt copies the bytes at off into buf; a nil slot reads as zeros.
func (d *SlowDevice) readAt(buf []byte, off int64) {
	d.checkRange(off, int64(len(buf)))
	for len(buf) > 0 {
		in := off % PageSize
		n := min(int64(len(buf)), PageSize-in)
		if p := d.pages[off/PageSize].Load(); p != nil {
			copy(buf[:n], p[in:in+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// writeAt stores data at off, page by page.
func (d *SlowDevice) writeAt(data []byte, off int64) {
	d.checkRange(off, int64(len(data)))
	for len(data) > 0 {
		in := off % PageSize
		n := min(int64(len(data)), PageSize-in)
		storePage(&d.pages[off/PageSize], in, data[:n])
		data = data[n:]
		off += n
	}
}

// zeroAt clears [off, off+n), page by page.
func (d *SlowDevice) zeroAt(off, n int64) {
	d.checkRange(off, n)
	for n > 0 {
		in := off % PageSize
		m := min(n, PageSize-in)
		clearPage(&d.pages[off/PageSize], in, m)
		off += m
		n -= m
	}
}

// clearPage clears bytes [in, in+n) of the page in slot: a whole page is
// given up, part of a backed one is cleared in place, and a nil slot
// already reads as zeros.
func clearPage(slot *atomic.Pointer[page], in, n int64) {
	if n == PageSize {
		slot.Store(nil)
	} else if p := slot.Load(); p != nil {
		clear(p[in : in+n])
	}
}

// storePage stores b at byte in of the page in slot. Zeros go to
// clearPage; other bytes are copied into the page, which is backed first
// if the slot is nil. A new page is filled whole before it is published,
// so no reader sees the stale bytes it brought from the pool.
func storePage(slot *atomic.Pointer[page], in int64, b []byte) {
	n := int64(len(b))
	if bytes.Equal(b, zeroPage[:n]) {
		clearPage(slot, in, n)
		return
	}
	for {
		if p := slot.Load(); p != nil {
			copy(p[in:], b)
			return
		}
		p := pagePool.Get().(*page)
		clear(p[:in])
		copy(p[in:], b)
		clear(p[in+n:])
		if slot.CompareAndSwap(nil, p) {
			return
		}
		pagePool.Put(p)
	}
}

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
	d.readAt(buf, off)
}

// Write is a charged write, durable on completion.
func (d *SlowDevice) Write(ctx *sim.Ctx, data []byte, off int64) {
	d.charge(ctx, off, int64(len(data)), true)
	d.writeAt(data, off)
}

// Zero is charged like a write of n bytes (the command still
// transfers/updates whole pages on the device).
func (d *SlowDevice) Zero(ctx *sim.Ctx, off, n int64) {
	d.charge(ctx, off, n, true)
	d.zeroAt(off, n)
}

// DiscardRange is uncharged and keeps the bytes: the file system frees a
// migration's detached blocks before its commit, so a crash state from
// before that commit still maps them, and must read them back as the unit
// left them. A freed page gives its host backing up when it is next
// overwritten with zeros, or when the device is released.
func (d *SlowDevice) DiscardRange(off, n int64) { d.checkRange(off, n) }
