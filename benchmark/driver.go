package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/benchmark/tracefs"
)

// client is one simulated closed-loop client: it issues its next
// operation when the previous one has returned. Every call into the
// stack is bracketed by begin/end, which take the exact virtual
// latency from the client's own clock.
type client struct {
	ctx       *simCtx
	lat       *latHist
	ops       int64 // operations attempted
	failed    int64 // error returns + oracle mismatches
	userBytes int64 // bytes the workload asked the stack to write
	batches   []batch
	measuring bool  // warm-up is over
	startNS   int64 // virtual instant the measured phase began
	t0        int64
	firstErr  error
}

func newClient(ctx *simCtx) *client { return &client{ctx: ctx, lat: newLatHist()} }

func (c *client) begin() { c.t0 = c.ctx.Now() }

func (c *client) end(err error) {
	c.lat.add(c.ctx.Now() - c.t0)
	c.ops++
	if err != nil {
		c.fail(err)
	}
}

// fail counts an operation as failed: an error return or bytes that do
// not match the oracle. The first one is kept for the report.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// resetMeasure discards what warm-up recorded and marks the start of
// the measured phase.
func (c *client) resetMeasure() {
	c.lat = newLatHist()
	c.ops, c.failed, c.userBytes, c.batches, c.firstErr = 0, 0, 0, nil, nil
	c.measuring, c.startNS = true, c.ctx.Now()
}

// nBatches is how many equal slices of the measured phase are timed on
// the host clock; throughput is the median over them.
const nBatches = 40

// drive runs step until the client has attempted total operations, in
// nBatches slices. A step may make more than one call, so a slice can
// overshoot its share by a step; the op counts are still a function of
// the seed alone.
func (c *client) drive(total int64, step func()) {
	for b := int64(1); b <= nBatches; b++ {
		target := total * b / nBatches
		ops0, t0 := c.ops, time.Now()
		for c.ops < target {
			step()
		}
		c.batches = append(c.batches, batch{ops: c.ops - ops0, hostNS: int64(time.Since(t0))})
	}
}

// dataFile is a file a workload reads and writes, with the oracle that
// knows what it holds.
type dataFile struct {
	path string
	f    vfsFile
	o    *oracle
}

// params are what a workload's set-up needs to know about the run.
type params struct {
	seed uint64
	// ops is the measured-phase operation count summed over clients;
	// set-up sizes nothing from it except mid-run events.
	ops int64
	// tr is nil on the measuring run.
	tr *tracefs.Tracer
	// maintOff replays maint_tiered with the maintenance thread idle.
	maintOff bool
}

// stack is one set-up instance of a workload: a formatted, aged and
// populated image with everything above it started, warmed up and
// ready for the measured phase.
type stack struct {
	fs   *wineFS
	dev  *pmDevice
	slow *slowDevice

	clients []*client
	steps   []func() // steps[i] issues clients[i]'s next operation

	// threads lists the simulated threads besides the clients' whose
	// counters belong to the run (the rewriter, the maintenance thread).
	threads []*simCtx
	// server is set when clients reach the image through a file server:
	// the sessions' counters then come from its Stats.
	server *fileServer
	caches []*pageCache
	// mappings the workload accesses; their faulted chunks enter the
	// hugepage-coverage metric.
	mappings []tracefs.Mapping

	age       ageStats
	ageHostNS int64

	maint *maintenance
	tally

	// stop flushes and detaches the clients and shuts the server down.
	stop func() error
}

// tally is what a workload counts over the measured phase that no perf
// counter does.
type tally struct {
	mapFaults int64 // mapped accesses that returned SIGBUS

	// File operations of maint_tiered, and those of them that issued no
	// slow-tier command: tier.pm_resident_pct.
	dataOps, residentOps int64

	// Maintenance calls, those of them that moved a block, re-formed a
	// hugepage extent or rewrote a file (maint.useful_pct), and the pause
	// the pacer injected across all of them.
	maintSteps, maintUseful, maintThrottled int64
}

// warm runs the warm-up every set-up ends with and clears its records.
func (st *stack) warm(opsPerClient int64) {
	st.runClients(func(i int) {
		c := st.clients[i]
		for c.ops < opsPerClient {
			st.steps[i]()
		}
	})
	for _, c := range st.clients {
		c.resetMeasure()
	}
	st.tally = tally{}
}

// maintStep makes one maintenance call on ctx under a span of the maint
// layer and tallies it.
func (st *stack) maintStep(tr *tracefs.Tracer, ctx *simCtx, op tracefs.Op, call func() error) error {
	moved := func() int64 {
		c := ctx.Counters
		return c.DefragMigratedBlocks + c.DefragRecovered2M + c.TierPromotedBlocks + c.TierDemotedBlocks + c.Rewrites
	}
	before := moved()
	h := tr.Start(ctx, tracefs.Maint, op)
	err := call()
	tr.End(h, err)
	st.maintSteps++
	if moved() > before {
		st.maintUseful++
	}
	return err
}

// runClients runs fn(i) for every client, each on its own goroutine
// when there is more than one, and waits for all of them.
func (st *stack) runClients(fn func(i int)) {
	if len(st.clients) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range st.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// measure runs the measured phase: ops operations split evenly over
// the clients.
func (st *stack) measure(ops int64) {
	per := ops / int64(len(st.clients))
	st.runClients(func(i int) { st.clients[i].drive(per, st.steps[i]) })
}

// counters merges the counters of every simulated thread that worked
// for the run.
func (st *stack) counters() counters {
	var sum counters
	for _, c := range st.clients {
		sum.Add(c.ctx.Counters)
	}
	for _, t := range st.threads {
		sum.Add(t.Counters)
	}
	if st.server != nil {
		srv := st.server.Stats().Counters
		sum.Add(&srv)
	}
	return sum
}

// cacheStats sums the clients' page-cache statistics — the six the
// per-layer rows use — and returns them less since.
func (st *stack) cacheStats(since cacheStats) cacheStats {
	sum := cacheStats{
		Hits: -since.Hits, Misses: -since.Misses, Evictions: -since.Evictions,
		FlushedBytes: -since.FlushedBytes, Revokes: -since.Revokes, FlushErrors: -since.FlushErrors,
	}
	for _, pc := range st.caches {
		s := pc.Stats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
		sum.FlushedBytes += s.FlushedBytes
		sum.Revokes += s.Revokes
		sum.FlushErrors += s.FlushErrors
	}
	return sum
}

// discard stops and frees a stack that will not be measured.
func (st *stack) discard() error {
	if st.stop != nil {
		if err := st.stop(); err != nil {
			return fmt.Errorf("stop: %w", err)
		}
	}
	st.release()
	return nil
}

// probeCoverage creates, maps and touches the probe file and returns
// how many of its 2MiB chunks came up as hugepages. A tiered mount
// whose PM tier is full can refuse the allocation or the fault; the
// chunks it refused count as not huge, which is what an application
// would have got.
func (st *stack) probeCoverage(ctx *simCtx) (huge, total int, err error) {
	total = probeBytes / hugePage
	f, err := st.fs.Create(ctx, "/bench.probe")
	if err != nil {
		return 0, 0, fmt.Errorf("probe create: %w", err)
	}
	defer f.Close(ctx)
	if err := f.Fallocate(ctx, 0, probeBytes); err != nil {
		if errors.Is(err, errNoSpace) {
			return 0, total, nil
		}
		return 0, 0, fmt.Errorf("probe fallocate: %w", err)
	}
	m, err := mapShared(ctx, f, probeBytes, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("probe map: %w", err)
	}
	if err := m.Touch(ctx, 0, probeBytes, false); err != nil && !errors.Is(err, errNoSpace) {
		return 0, 0, fmt.Errorf("probe touch: %w", err)
	}
	huge, _ = m.FaultedChunks()
	if err := m.Close(ctx); err != nil {
		return 0, 0, fmt.Errorf("probe unmap: %w", err)
	}
	return huge, total, nil
}

// release hands the image's host memory back.
func (st *stack) release() {
	st.dev.Release()
	if st.slow != nil {
		st.slow.Release()
	}
}

// final is the state of the image after the measured phase, taken
// outside every timed region.
type final struct {
	alignedFreePct  float64
	hugeCoveragePct float64
	hostMB          float64
	problems        []string // audit violations and checker errors
}

// probeBytes is the size of the file the coverage probe maps on the
// final image: what the next mmap application would get. It is below
// the gap between the tiered mount's water marks (10% of 256MiB), so
// that on maint_tiered the probe measures alignment, not the spill
// policy.
const probeBytes = 16 << 20

// finish stops the stack, reads the final image, audits it, unmounts
// and checks it. The stack must not be used afterwards.
func (st *stack) finish() (final, error) {
	var fin final
	var huge, total int
	for _, m := range st.mappings {
		h, t := m.FaultedChunks()
		huge += h
		total += t
	}
	ctx := newCtx(900, 0)
	for _, c := range st.clients {
		ctx.AdvanceTo(c.ctx.Now())
	}
	for _, m := range st.mappings {
		if err := m.Close(ctx); err != nil {
			return fin, fmt.Errorf("close mapping: %w", err)
		}
	}
	if st.stop != nil {
		if err := st.stop(); err != nil {
			return fin, fmt.Errorf("stop: %w", err)
		}
	}
	if st.maint != nil {
		if err := st.maint.quiesce(st.fs, ctx.Now()); err != nil {
			return fin, fmt.Errorf("maintenance catch-up: %w", err)
		}
	}
	fin.alignedFreePct = alignedFreePct(st.fs)

	h, t, err := st.probeCoverage(ctx)
	if err != nil {
		return fin, err
	}
	huge += h
	total += t
	fin.hugeCoveragePct = 100 * float64(huge) / float64(total)
	fin.hostMB = float64(st.dev.HostBytes()) / (1 << 20)

	if err := st.fs.Audit(ctx); err != nil {
		fin.problems = append(fin.problems, "audit: "+err.Error())
	}
	if err := st.fs.Unmount(ctx); err != nil {
		return fin, fmt.Errorf("unmount: %w", err)
	}
	for _, e := range checkImage(st.dev, st.slow) {
		fin.problems = append(fin.problems, "check: "+e)
	}
	return fin, nil
}
