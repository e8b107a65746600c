package main

import (
	"errors"
	"fmt"

	"repro/benchmark/tracefs"
)

// maint_tiered: foreground work beside the maintenance machinery. A
// tiered mount (PM plus a simulated SSD) is aged into the state every
// ager converges to — each hugepage chunk half live, no free aligned
// extent — and filled with a working set 1.5 times the PM tier, so
// part of it spills. One foreground thread reads and writes 4KiB
// blocks with a 90/10 hotspot and loads and stores through one mapped
// hot file; one maintenance thread, interleaved with it on the same
// goroutine so the run is deterministic, rotates through the online
// defragmenter, the tier migrator and the reactive rewriter under one
// duty-cycle pacer. The four copy-then-swap movers, slow-tier
// commands, pacer idle and TLB-shootdown drains all run beside reads
// and writes of the same extents.
//
// The cadence is calibrated, not arbitrary: a tier pass every 3,000
// foreground operations that moves at most 1MiB keeps the placement
// policy in one regime on every seed. With passes of 4MiB every 6,000
// operations the same mount settles, seed by seed, into one of two —
// demotion-driven or promotion-driven, 52 against 64 kops per virtual
// second — and a benchmark that flips between them resolves nothing
// (README, Known gaps).
const (
	tierPMBytes    = 256 << 20
	tierSlowBytes  = 1 << 30
	tierAgeUtil    = 0.8     // fill level before every other churn file is deleted
	tierChurnFile  = 1 << 20 // two per hugepage chunk
	tierFileBytes  = 2 << 20
	tierFiles      = 192 // 384MiB: 1.5x the PM tier
	tierMapBytes   = 8 << 20
	tierHotData    = 0.1 // share of the working set that is hot
	tierHotAccess  = 0.9 // share of accesses that go to it
	tierMappedPct  = 15  // share of foreground ops that go through the mapping
	tierWarmOps    = 300_000
	maintEvery     = 1000 // foreground ops between maintenance steps
	maintBudget    = 0.1  // duty cycle of the maintenance thread
	maintChunks    = 4    // DefragPass MaxChunks
	maintBlocks    = 256  // TierPass MaxMigrateBlocks: 1MiB a pass
	quiesceRounds  = 64   // bound on the catch-up finish gives the maintenance thread
	tierScatterMul = 1000003
)

// maintenance is the background thread of maint_tiered.
type maintenance struct {
	ctx   *simCtx
	pacer *simPacer
	off   bool
	turn  int
}

type maintTiered struct {
	st  *stack
	c   *client
	rng *simRand
	tr  *tracefs.Tracer

	files      []dataFile
	hot        tracefs.Mapping
	ohot       *oracle
	hotSlots   int64
	slots      int64
	buf        [blockSize]byte
	line       [64]byte
	sinceMaint int
	reads      int64
}

func setupMaintTiered(p params) (*stack, error) {
	ctx := newCtx(1, 0)
	st := &stack{dev: newDevice(tierPMBytes), slow: newSlow(tierSlowBytes)}
	fs, err := mkfsStrict(ctx, st.dev, st.slow)
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	st.fs = fs
	if err := churnAge(ctx, fs); err != nil {
		return nil, fmt.Errorf("aging: %w", err)
	}
	w := &maintTiered{st: st, rng: newRand(p.seed ^ 0x74696572), tr: p.tr}
	top := tracefs.WrapFS(p.tr, fs, tracefs.Winefs)

	// The mapped hot file first, while PM still has room for it.
	fh, err := top.Create(ctx, "/hot.map")
	if err != nil {
		return nil, err
	}
	if err := fh.Fallocate(ctx, 0, tierMapBytes); err != nil {
		return nil, fmt.Errorf("fallocate hot file: %w", err)
	}
	w.ohot = newOracle(fileKey(p.seed, 1<<40), 64, tierMapBytes, 0)
	mh, err := mapShared(ctx, fh, tierMapBytes, 0)
	if err != nil {
		return nil, fmt.Errorf("map hot file: %w", err)
	}
	w.hot = tracefs.WrapMapping(p.tr, mh)
	st.mappings = []tracefs.Mapping{w.hot}

	// The working set: past the high-water mark its blocks spill to the
	// slow tier instead of failing.
	fill := make([]byte, 1<<20)
	w.files = make([]dataFile, tierFiles)
	for i := range w.files {
		sf := &w.files[i]
		sf.path = fmt.Sprintf("/w%04d", i)
		sf.o = newOracle(fileKey(p.seed, uint64(i)), blockSize, tierFileBytes, 1)
		if sf.f, err = top.Create(ctx, sf.path); err != nil {
			return nil, err
		}
		for off := int64(0); off < tierFileBytes; off += int64(len(fill)) {
			sf.o.fill(fill, off)
			if _, err := sf.f.WriteAt(ctx, fill, off); err != nil {
				return nil, fmt.Errorf("populate %s: %w", sf.path, err)
			}
		}
	}
	w.slots = tierFiles * (tierFileBytes / blockSize)
	w.hotSlots = int64(tierHotData * float64(w.slots))

	w.c = newClient(ctx)
	st.maint = &maintenance{ctx: newCtx(2, 1), pacer: newPacer(maintBudget), off: p.maintOff}
	st.clients = []*client{w.c}
	st.steps = []func(){w.step}
	st.threads = []*simCtx{st.maint.ctx}
	st.warm(tierWarmOps)
	return st, nil
}

// churnAge brings the PM tier to the aged endgame: filled to
// tierAgeUtil with files that pack two to a hugepage chunk, every
// other one deleted, and whatever aligned extents the fill never
// reached pinned by a long-lived file. Free space is ample and none of
// it is aligned.
func churnAge(ctx *simCtx, fs *wineFS) error {
	buf := make([]byte, tierChurnFile)
	var names []string
	for i := 0; ; i++ {
		s := fs.StatFS(ctx)
		if 1-float64(s.FreeBlocks)/float64(s.TotalBlocks) >= tierAgeUtil {
			break
		}
		name := fmt.Sprintf("/churn%05d", i)
		f, err := fs.Create(ctx, name)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			return err
		}
		if err := f.Close(ctx); err != nil {
			return err
		}
		names = append(names, name)
	}
	for i := 0; i < len(names); i += 2 {
		if err := fs.Unlink(ctx, names[i]); err != nil {
			return err
		}
	}
	pin, err := fs.Create(ctx, "/churn.pin")
	if err != nil {
		return err
	}
	var off int64
	for try := 0; try < 32; try++ {
		aligned := fs.StatFS(ctx).FreeAligned2M
		if aligned == 0 {
			return pin.Close(ctx)
		}
		if err := pin.Fallocate(ctx, off, aligned*hugePage); err != nil {
			return err
		}
		off += aligned * hugePage
	}
	return errors.New("aligned extents remain free after pinning")
}

// step issues one foreground operation and, every maintEvery of them,
// gives the maintenance thread its turn.
func (w *maintTiered) step() {
	c := w.c
	if w.sinceMaint++; w.sinceMaint == maintEvery {
		w.sinceMaint = 0
		w.maintain()
	}
	r := w.rng.Uint64()
	store := (r>>8)%5 == 0
	if r%100 < tierMappedPct {
		w.mapped(r>>16, (r>>8)%10 == 0)
		return
	}
	// Rank 0 is the hottest slot. Ranks are dense within a file and the
	// file a rank lands in is scattered by a multiplicative permutation:
	// without it the hot head would be the files created first, exactly
	// the ones set-up left in PM, and heat-driven migration would have
	// nothing to do.
	var rank int64
	if w.rng.Float64() < tierHotAccess {
		rank = int64((r >> 16) % uint64(w.hotSlots))
	} else {
		rank = w.hotSlots + int64((r>>16)%uint64(w.slots-w.hotSlots))
	}
	const perFile = tierFileBytes / blockSize
	sf := &w.files[(rank/perFile*tierScatterMul)%tierFiles]
	off := rank % perFile * blockSize
	buf := w.buf[:]
	slow0 := c.ctx.Counters.SlowReads + c.ctx.Counters.SlowWrites
	if store {
		sf.o.bump(off, blockSize)
		sf.o.fill(buf, off)
		c.begin()
		_, err := sf.f.WriteAt(c.ctx, buf, off)
		c.end(err)
		c.userBytes += blockSize
	} else {
		c.begin()
		n, err := sf.f.ReadAt(c.ctx, buf, off)
		c.end(err)
		if err == nil && (n != blockSize || !sf.o.check(buf, off)) {
			c.fail(fmt.Errorf("read %s at %d: bytes do not match the oracle", sf.path, off))
		}
	}
	w.st.dataOps++
	if c.ctx.Counters.SlowReads+c.ctx.Counters.SlowWrites == slow0 {
		w.st.residentOps++
	}
}

// mapped loads or stores one line of the mapped hot file.
func (w *maintTiered) mapped(r uint64, store bool) {
	c, buf := w.c, w.line[:]
	off := int64(r%(tierMapBytes/64)) * 64
	var err error
	if store {
		w.ohot.bump(off, 64)
		w.ohot.fill(buf, off)
		c.begin()
		err = w.hot.Write(c.ctx, buf, off)
		c.end(err)
		c.userBytes += 64
	} else {
		c.begin()
		err = w.hot.Read(c.ctx, buf, off)
		c.end(err)
		if w.reads++; err == nil && w.reads%verifyEvery == 0 && !w.ohot.check(buf, off) {
			c.fail(fmt.Errorf("mapped read at %d: bytes do not match the oracle", off))
		}
	}
	if errors.Is(err, errMapFault) {
		w.st.mapFaults++
	}
}

// maintain runs the maintenance thread's next step if it is due: the
// thread sleeps out its duty cycle in virtual time, so a step whose
// predecessor's pause has not yet elapsed on the foreground clock is
// skipped, not queued.
func (w *maintTiered) maintain() {
	m := w.st.maint
	pacer := m.pacer
	if !w.c.measuring {
		// Warm-up converges placement: the one-time unscrambling of the
		// set-up layout is thousands of blocks of copies, and the measured
		// phase is about the steady state, so here the thread runs
		// unthrottled and is never skipped.
		pacer = nil
	} else if m.off || m.ctx.Now() > w.c.ctx.Now() {
		return
	}
	m.ctx.AdvanceTo(w.c.ctx.Now())
	st := w.st
	paused0 := m.pacer.PausedNS
	switch m.turn++; m.turn % 3 {
	case 0:
		w.maintFailed(st.maintStep(w.tr, m.ctx, tracefs.OpDefragPass, func() error {
			_, err := defragPass(st.fs, m.ctx, pacer, maintChunks)
			return err
		}))
	case 1:
		w.maintFailed(st.maintStep(w.tr, m.ctx, tracefs.OpTierPass, func() error {
			_, err := tierPass(st.fs, m.ctx, pacer, maintBlocks)
			return err
		}))
	case 2:
		// RunRewriter takes no pacer: charge its duty cycle here.
		t0 := m.ctx.Now()
		_ = st.maintStep(w.tr, m.ctx, tracefs.OpRewriter, func() error {
			st.fs.RunRewriter(m.ctx)
			return nil // the rewriter reports no error
		})
		pacer.Pace(m.ctx, m.ctx.Now()-t0)
	}
	st.maintThrottled += m.pacer.PausedNS - paused0
}

// quiesce lets the maintenance thread catch up, unthrottled, until a
// whole rotation makes no progress — what the daemon does with idle
// time between bursts. finish calls it before it reads the final
// image, so the coverage and alignment an application would find there
// say what maintenance can restore, not at which point of its duty
// cycle the foreground happened to stop.
func (m *maintenance) quiesce(fs *wineFS, now int64) error {
	m.ctx.AdvanceTo(now)
	for round := 0; round < quiesceRounds; round++ {
		ds, err := defragPass(fs, m.ctx, nil, 16*maintChunks)
		if err != nil {
			return fmt.Errorf("defrag pass: %w", err)
		}
		ts, err := tierPass(fs, m.ctx, nil, 4*maintBlocks)
		if err != nil {
			return fmt.Errorf("tier pass: %w", err)
		}
		rewrites := fs.RunRewriter(m.ctx)
		if ds.Clean() && ts.PromotedBlocks+ts.DemotedBlocks == 0 && rewrites == 0 {
			return nil
		}
	}
	return nil
}

func (w *maintTiered) maintFailed(err error) {
	if err != nil {
		w.c.fail(fmt.Errorf("maintenance: %w", err))
	}
}
