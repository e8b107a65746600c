package main

import (
	"errors"
	"fmt"
	"time"

	"repro/benchmark/tracefs"
)

// mmap_aged: the paper's headline path. One simulated thread loads and
// stores through two shared mappings on a Geriatrix-aged image — a
// large fallocated file that can take hugepages and a small file grown
// by interleaved appends that cannot, until the reactive rewriter runs
// halfway through. vmm, mmu and pmem do nearly all the work; the
// journal, the lock table and the RPC path do almost none.
const (
	agedImageBytes = 2 << 30
	agedUtil       = 0.7
	agedChurn      = 2

	mmapFileA   = 256 << 20 // above the modelled LLC; hugepage-eligible
	mmapFileB   = 32 << 20  // above 4KiB-TLB reach; fragmented at birth
	mmapWindow  = 64 << 20  // address budget of the scanning mapping
	mmapWarmOps = 200_000
	msyncEvery  = 50_000 // stores between msyncs
	verifyEvery = 64     // mapped reads between oracle checks
)

type mmapAged struct {
	st  *stack
	c   *client
	rng *simRand
	bg  *simCtx
	tr  *tracefs.Tracer

	a, b, scan tracefs.Mapping
	oa, ob     *oracle
	line       [64]byte
	page       [4096]byte

	n, reads, stores int64
	scanOff          int64
	rewriteAt        int64 // measured-phase op count at which the rewriter runs
	rewrote          bool
}

// setupAgedImage formats a strict WineFS and ages it with Geriatrix.
func setupAgedImage(ctx *simCtx, st *stack, seed uint64) error {
	st.dev = newDevice(agedImageBytes)
	fs, err := mkfsStrict(ctx, st.dev, nil)
	if err != nil {
		return fmt.Errorf("mkfs: %w", err)
	}
	st.fs = fs
	t0 := time.Now()
	st.age, err = ageAgrawal(ctx, fs, agedUtil, agedChurn, seed)
	st.ageHostNS = int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("aging: %w", err)
	}
	return nil
}

func setupMmapAged(p params) (*stack, error) {
	ctx := newCtx(1, 0)
	st := &stack{}
	if err := setupAgedImage(ctx, st, p.seed); err != nil {
		return nil, err
	}
	w := &mmapAged{st: st, rng: newRand(p.seed ^ 0x6d6d6170), tr: p.tr, rewriteAt: p.ops / 2}
	top := tracefs.WrapFS(p.tr, st.fs, tracefs.Winefs)

	fa, err := top.Create(ctx, "/bench.A")
	if err != nil {
		return nil, err
	}
	if err := fa.Fallocate(ctx, 0, mmapFileA); err != nil {
		return nil, fmt.Errorf("fallocate A: %w", err)
	}
	w.oa = newOracle(fileKey(p.seed, 1), 64, mmapFileA, 0)

	// B and a decoy take turns appending two blocks, so neither gets a
	// run longer than that: B is born on base pages. (One block at a time
	// does the same to the mapping and costs set-up four times as much:
	// appending to a file of n extents re-sorts all n.)
	fb, err := top.Create(ctx, "/bench.B")
	if err != nil {
		return nil, err
	}
	decoy, err := top.Create(ctx, "/bench.decoy")
	if err != nil {
		return nil, err
	}
	w.ob = newOracle(fileKey(p.seed, 2), 64, mmapFileB, 1)
	var piece [2 * blockSize]byte
	for off := int64(0); off < mmapFileB; off += int64(len(piece)) {
		w.ob.fill(piece[:], off)
		if _, err := fb.Append(ctx, piece[:]); err != nil {
			return nil, fmt.Errorf("append B: %w", err)
		}
		if _, err := decoy.Append(ctx, piece[:]); err != nil {
			return nil, fmt.Errorf("append decoy: %w", err)
		}
	}
	if err := decoy.Close(ctx); err != nil {
		return nil, err
	}

	ma, err := mapShared(ctx, fa, mmapFileA, 0)
	if err != nil {
		return nil, fmt.Errorf("map A: %w", err)
	}
	mb, err := mapShared(ctx, fb, mmapFileB, 0)
	if err != nil {
		return nil, fmt.Errorf("map B: %w", err)
	}
	ms, err := mapShared(ctx, fa, mmapFileA, mmapWindow)
	if err != nil {
		return nil, fmt.Errorf("map A window: %w", err)
	}
	w.a, w.b, w.scan = tracefs.WrapMapping(p.tr, ma), tracefs.WrapMapping(p.tr, mb), tracefs.WrapMapping(p.tr, ms)

	w.c = newClient(ctx)
	w.bg = newCtx(2, 1)
	st.clients = []*client{w.c}
	st.steps = []func(){w.step}
	st.threads = []*simCtx{w.bg}
	st.mappings = []tracefs.Mapping{w.a, w.b, w.scan}
	st.warm(mmapWarmOps)
	return st, nil
}

// step issues one mapped access: 80% to A, 20% to B; nine loads to one
// store; 64 bytes, except that every 16th access moves 4KiB — on A as
// the next page of a sequential scan through the windowed mapping, on
// B at a random page.
func (w *mmapAged) step() {
	c := w.c
	if !w.rewrote && c.measuring && c.ops >= w.rewriteAt {
		w.rewrote = true
		w.rewrite()
	}
	w.n++
	r := w.rng.Uint64()
	onB := r%5 == 0
	store := (r>>8)%10 == 0
	m, o, size := w.a, w.oa, int64(mmapFileA)
	if onB {
		m, o, size = w.b, w.ob, mmapFileB
	}
	buf := w.line[:]
	off := int64((r>>16)%uint64(size/64)) * 64
	if w.n%16 == 0 {
		buf, store = w.page[:], false
		if onB {
			off = off &^ (blockSize - 1)
		} else {
			m, off = w.scan, w.scanOff
			w.scanOff = (w.scanOff + blockSize) % mmapFileA
		}
	}
	if store {
		o.bump(off, 64)
		o.fill(buf, off)
		c.begin()
		err := m.Write(c.ctx, buf, off)
		c.end(err)
		w.faulted(err)
		c.userBytes += 64
		if w.stores++; w.stores%msyncEvery == 0 {
			for _, mm := range []tracefs.Mapping{w.a, w.b} {
				c.begin()
				c.end(mm.Msync(c.ctx, 0, -1))
			}
		}
		return
	}
	c.begin()
	err := m.Read(c.ctx, buf, off)
	c.end(err)
	w.faulted(err)
	if w.reads++; err == nil && w.reads%verifyEvery == 0 && !o.check(buf, off) {
		c.fail(fmt.Errorf("mapped read at %d: bytes do not match the oracle", off))
	}
}

func (w *mmapAged) faulted(err error) {
	if errors.Is(err, errMapFault) {
		w.st.mapFaults++
	}
}

// rewrite runs the reactive rewriter once, on its own simulated thread
// as the paper's background thread does. B was queued when it was
// mapped; afterwards it sits on aligned extents and its live mapping
// is promoted in place.
func (w *mmapAged) rewrite() {
	w.bg.AdvanceTo(w.c.ctx.Now())
	_ = w.st.maintStep(w.tr, w.bg, tracefs.OpRewriter, func() error {
		w.st.fs.RunRewriter(w.bg)
		return nil // the rewriter reports no error
	})
}
