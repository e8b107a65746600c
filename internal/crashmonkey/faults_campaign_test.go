package crashmonkey

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// Fault campaign: the crash-exploration harness extended with media faults.
// Each seeded run replays an ACE workload, builds a crash image at a random
// fence epoch with torn in-flight stores and/or poisons cache lines the
// workload touched, and then asserts the degradation ladder: every outcome
// must be transparent recovery, a clean EIO, or read-only degradation —
// never a panic and never silently wrong data. The data oracle is exact
// because every workload writes zeros or DataByte: any successful read that
// returns another byte is silent corruption, and a transparent recovery
// must show the state — file contents included — before or after the
// injured unit.

// FaultMode selects how a run injures the device.
type FaultMode int

// Fault modes.
const (
	// ModeTorn builds a crash image whose in-flight stores are torn at cache
	// line granularity (no poison).
	ModeTorn FaultMode = iota
	// ModePoisonCrash builds a torn crash image and additionally poisons
	// lines the in-flight operation stored to.
	ModePoisonCrash
	// ModePoisonLive poisons lines on a cleanly unmounted image, modelling
	// media wear discovered at the next mount.
	ModePoisonLive
	modeCount
)

func (m FaultMode) String() string {
	switch m {
	case ModeTorn:
		return "torn"
	case ModePoisonCrash:
		return "poison+crash"
	case ModePoisonLive:
		return "poison-live"
	}
	return "?"
}

// FaultCampaignConfig tunes the campaign.
type FaultCampaignConfig struct {
	// Runs is the number of seeded runs (default 120).
	Runs int
	Seed uint64
}

func (c *FaultCampaignConfig) defaults() {
	if c.Runs == 0 {
		c.Runs = 120
	}
}

// FaultCampaignResult aggregates the campaign. Every run lands in exactly
// one outcome bucket or in Failures.
type FaultCampaignResult struct {
	Runs int
	// CleanRecoveries: mount succeeded un-degraded and the namespace matched
	// the atomicity oracle.
	CleanRecoveries int
	// EIOMounts: the mount itself failed with a clean EIO.
	EIOMounts int
	// Degraded: the mount fell back to read-only.
	Degraded int
	// Repaired counts EIO/degraded runs where the offline repair then
	// produced a clean, mountable image.
	Repaired int
	// DataEIOReads counts file reads that surfaced poison as EIO.
	DataEIOReads int
	// TierRuns counts runs that mounted with a slow second tier (every
	// other run): spill-on-allocation plus a migration pass after each
	// workload op, so tier-migration journal records sit in the torn-store
	// population like any other metadata update.
	TierRuns int
	// TierMigrations counts migration passes that actually moved extents
	// (and were therefore recorded as crashable units) — the coverage
	// check that tiered runs exercise migration rather than mounting an
	// idle tier.
	TierMigrations int
	// Failures are the runs that broke the ladder: a panic, a silent wrong
	// byte, a non-EIO error, or writes accepted while degraded.
	Failures []string
}

// OK reports whether the ladder held for every run.
func (r *FaultCampaignResult) OK() bool { return len(r.Failures) == 0 }

func (r *FaultCampaignResult) String() string {
	return fmt.Sprintf("%d runs (%d tiered, %d migration points): %d clean recoveries, %d EIO mounts, %d degraded, %d repaired, %d data reads EIO, %d failures",
		r.Runs, r.TierRuns, r.TierMigrations, r.CleanRecoveries, r.EIOMounts, r.Degraded, r.Repaired, r.DataEIOReads, len(r.Failures))
}

// RunFaultCampaign executes cfg.Runs seeded fault runs, cycling through the
// ACE seq-1 and seq-2 workloads.
//
// Runs are fully independent — each boots its own device, file system and
// sim contexts from nothing but (seed, mode, workload) — so they execute
// on host cores via sim.ParallelRunner. Every run accumulates into its own
// index slot and the slots merge in index order afterwards, making the
// aggregate bit-identical to the sequential loop's.
func RunFaultCampaign(cfg FaultCampaignConfig) *FaultCampaignResult {
	cfg.defaults()
	workloads := append(GenerateSeq1(), GenerateSeq2()...)
	perRun := make([]FaultCampaignResult, cfg.Runs)
	msgs := make([]string, cfg.Runs)
	var pr sim.ParallelRunner
	pr.Run(cfg.Runs, func(i int) {
		w := workloads[i%len(workloads)]
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		// Rotate the fault mode by cycle so each workload meets every mode
		// (the workload count is a multiple of the mode count), and mount
		// every other cycle strict: six cycles cover the pairs.
		cycle := i / len(workloads)
		mode := FaultMode((i + cycle) % int(modeCount))
		if cycle%2 == 1 {
			w.Mode = vfs.Strict
		}
		// Every other run mounts tiered; the workload count is odd, so each
		// workload is tiered in every other cycle.
		tiered := i%2 == 1
		if msg := guardRun(func() string {
			return faultRun(w, seed, mode, tiered, &perRun[i])
		}); msg != "" {
			msgs[i] = fmt.Sprintf("run %d (%s, %s, tiered=%v, seed %#x): %s", i, w.Name, mode, tiered, seed, msg)
		}
	})
	res := &FaultCampaignResult{}
	for i := range perRun {
		res.Runs++
		res.CleanRecoveries += perRun[i].CleanRecoveries
		res.EIOMounts += perRun[i].EIOMounts
		res.Degraded += perRun[i].Degraded
		res.Repaired += perRun[i].Repaired
		res.DataEIOReads += perRun[i].DataEIOReads
		res.TierRuns += perRun[i].TierRuns
		res.TierMigrations += perRun[i].TierMigrations
		if msgs[i] != "" {
			res.Failures = append(res.Failures, msgs[i])
		}
	}
	return res
}

// guardRun converts a panic anywhere in a run into a campaign failure —
// the one outcome the ladder forbids unconditionally.
func guardRun(f func() string) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("PANIC: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// faultRun performs one seeded run and classifies its outcome. It returns
// "" when the degradation ladder held and a failure description otherwise.
//
// A tiered run mounts the same workload over a PM device half-backed by a
// slow tier with water marks low enough that ordinary file writes spill,
// and interleaves a TierPass after every workload op, alternating between
// demotion-aggressive and promotion-friendly marks. Each pass is its own
// crashable unit, so the campaign tears migration transactions exactly
// like workload transactions. The slow device is snapshotted after every
// unit and rewound together with the PM image: slow writes are durable on
// completion, so a crash image from unit k must not see slow-tier writes
// from the units after it (a later spill may legitimately reuse blocks a
// committed promotion freed).
func faultRun(w Workload, seed uint64, mode FaultMode, tiered bool, res *FaultCampaignResult) string {
	rng := sim.NewRand(seed)
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(deviceSize)
	defer dev.Release()
	var slow *tier.SlowDevice
	var topts *winefs.TierOptions
	var slowBlocks int64
	if tiered {
		slow = tier.NewSlow(tier.DefaultSlowConfig(deviceSize / 2))
		defer slow.Release()
		topts = &winefs.TierOptions{Slow: slow}
		slowBlocks = slow.Size() / winefs.BlockSize
		res.TierRuns++
	}
	opts := winefs.Options{CPUs: cpus, InodesPerCPU: 512, Tier: topts, Mode: w.Mode}
	fs, err := winefs.Mkfs(ctx, dev, opts)
	if err != nil {
		return fmt.Sprintf("mkfs: %v", err)
	}
	aggressiveMarks(fs)
	for _, o := range w.Setup {
		if err := fstest.Apply(ctx, fs, o); err != nil {
			return fmt.Sprintf("setup %s: %v", o, err)
		}
	}

	// Replay the workload as a sequence of crashable units (ops, and on
	// tiered runs the migration passes between them), keeping per-unit
	// recordings and the before/after oracle states.
	type crashUnit struct {
		rec       *pmem.Recording
		slowAfter *pmem.Device // slow-tier contents after the unit; nil untiered
		pre, post string
		op        fstest.Op // the zero Op for a migration pass
	}
	var units []crashUnit
	defer func() {
		for _, u := range units {
			u.rec.Base.Release()
			if u.slowAfter != nil {
				u.slowAfter.Release()
			}
		}
	}()
	prev := vfs.State(ctx, fs)
	record := func(o fstest.Op, f func() error) {
		rec, err := dev.Record(f)
		cur := vfs.State(ctx, fs)
		if err == nil && len(rec.Stores) > 0 {
			u := crashUnit{rec: rec, pre: prev, post: cur, op: o}
			if slow != nil {
				u.slowAfter = slow.Snapshot()
			}
			units = append(units, u)
		} else {
			rec.Base.Release()
		}
		prev = cur
	}
	for k, o := range w.Ops {
		o := o
		record(o, func() error { return fstest.Apply(ctx, fs, o) })
		if tiered {
			// Alternate marks, promotion first: setup and op writes spilled
			// under the aggressive mount marks and still carry the heat the
			// write gave them, so a relaxed pass pulls them up to PM — and
			// the aggressive pass after the next op pushes them back down.
			if k%2 == 0 {
				fs.SetTierMarks(0.95, 0.85, campaignPromoteMin)
			} else {
				aggressiveMarks(fs)
			}
			nUnits := len(units)
			record(fstest.Op{}, func() error {
				_, err := fs.TierPass(ctx, winefs.TierPassOptions{MaxMigrateBlocks: 512})
				return err
			})
			if len(units) > nUnits {
				res.TierMigrations++
			}
		}
	}
	if len(units) == 0 {
		res.CleanRecoveries++ // nothing to injure; vacuous
		return ""
	}

	var crash *pmem.Device     // the crash state the recovery mounts
	var slowAfter *pmem.Device // the slow tier's contents at the crash; nil when live
	var injured []pmem.Store   // stores whose lines are poison candidates
	var pre, post string       // the atomicity oracle: the states around inflight
	var inflight fstest.Op
	switch mode {
	case ModeTorn, ModePoisonCrash:
		u := units[rng.Intn(len(units))]
		e := rng.Intn(u.rec.Last() + 1)
		injured = u.rec.Epoch(e)
		crash = u.rec.Torn(e, 0.2+0.6*rng.Float64(), rng)
		slowAfter = u.slowAfter
		pre, post, inflight = u.pre, u.post, u.op
	case ModePoisonLive:
		if err := fs.Unmount(ctx); err != nil {
			return fmt.Sprintf("unmount: %v", err)
		}
		crash = dev.Snapshot()
		for i := range units {
			injured = append(injured, units[i].rec.Stores...)
		}
		pre, post = prev, prev
	}
	defer crash.Release()
	if slowAfter != nil {
		// Rewind the slow tier to the crash unit's durable state; the live
		// fs is abandoned past this point, so restoring in place is safe.
		slow.Restore(slowAfter)
	}
	if mode == ModePoisonCrash || mode == ModePoisonLive {
		// Pick poison targets byte-weighted across everything the workload
		// stored, so large data writes are hit as often as their footprint
		// deserves (store-uniform picking would drown them under the many
		// 64-byte journal entries).
		var total int64
		for _, s := range injured {
			total += int64(len(s.Data))
		}
		nPoison := 1 + rng.Intn(3)
		for p := 0; p < nPoison && total > 0; p++ {
			r := rng.Int63n(total)
			for _, s := range injured {
				if r < int64(len(s.Data)) {
					off := s.Off + r
					crash.Poison(off/pmem.CacheLine*pmem.CacheLine, 1)
					break
				}
				r -= int64(len(s.Data))
			}
		}
	}

	// Recover and classify.
	rctx := sim.NewCtx(2, 0)
	rfs, err := winefs.Mount(rctx, crash, opts)
	if err != nil {
		// Rung 2: the mount itself must fail with a clean EIO, nothing else.
		if !errors.Is(err, vfs.ErrIO) {
			return fmt.Sprintf("mount failed with non-EIO error: %v", err)
		}
		res.EIOMounts++
		return repairAndRemount(crash, opts, slowBlocks, res)
	}
	aggressiveMarks(rfs)
	if reason, degraded := rfs.Degraded(); degraded {
		// Rung 3: read-only fallback. Reads must keep working (no panic;
		// errors must be EIO) and every mutation must refuse cleanly.
		_ = vfs.State(rctx, rfs)
		if msg := readAllFiles(rctx, rfs, res); msg != "" {
			return fmt.Sprintf("degraded (%s): %s", reason, msg)
		}
		if err := rfs.Mkdir(rctx, "/.probe"); !errors.Is(err, vfs.ErrReadOnly) {
			return fmt.Sprintf("degraded (%s): mkdir returned %v, want ErrReadOnly", reason, err)
		}
		if _, err := rfs.Create(rctx, "/.probe2"); !errors.Is(err, vfs.ErrReadOnly) {
			return fmt.Sprintf("degraded (%s): create returned %v, want ErrReadOnly", reason, err)
		}
		res.Degraded++
		return repairAndRemount(crash, opts, slowBlocks, res)
	}
	// Rung 1: transparent recovery. The namespace must match the atomicity
	// oracle and the image must pass fsck.
	if got := vfs.State(rctx, rfs); !crashAtomic(got, pre, post, inflight, w.Mode) {
		return fmt.Sprintf("atomicity violated:\n got: %q\n pre: %q\npost: %q", got, pre, post)
	}
	if rep := winefs.CheckTiered(crash, slowBlocks); !rep.OK() {
		return fmt.Sprintf("clean mount but fsck: %s", rep.Errors[0])
	}
	// A transparent recovery must also rebuild the allocator exactly: the
	// invariant auditor reconciles caches, hole-pool promotion, StatFS and
	// the free/used tiling. (Degraded mounts are exempt — unreadable extent
	// records legitimately lose blocks from both sides of the ledger.)
	if err := rfs.Audit(rctx); err != nil {
		return fmt.Sprintf("clean recovery failed audit: %v", err)
	}
	if msg := readAllFiles(rctx, rfs, res); msg != "" {
		return msg
	}
	res.CleanRecoveries++
	return ""
}

// readAllFiles reads every file in full through the checked path. Reads may
// fail — but only with EIO — and bytes that do come back must be zero or
// DataByte (the campaign's workloads write nothing else), so any other byte
// is silent corruption.
func readAllFiles(ctx *sim.Ctx, fs vfs.FS, res *FaultCampaignResult) string {
	buf := make([]byte, 1<<16)
	err := vfs.Walk(ctx, fs, func(p string, e vfs.DirEntry, err error) error {
		switch {
		case errors.Is(err, vfs.ErrIO):
			res.DataEIOReads++
			return nil
		case err != nil:
			return fmt.Errorf("readdir %s: non-EIO error %v", p, err)
		case e.IsDir:
			return nil
		}
		f, err := fs.Open(ctx, p)
		if err != nil {
			if errors.Is(err, vfs.ErrIO) {
				res.DataEIOReads++
				return nil
			}
			return fmt.Errorf("open %s: non-EIO error %v", p, err)
		}
		defer f.Close(ctx)
		fi, err := fs.Stat(ctx, p)
		if err != nil {
			return nil
		}
		for off := int64(0); off < fi.Size; off += int64(len(buf)) {
			n := min(fi.Size-off, int64(len(buf)))
			m, err := f.ReadAt(ctx, buf[:n], off)
			if err != nil {
				if errors.Is(err, vfs.ErrIO) {
					res.DataEIOReads++
					continue
				}
				return fmt.Errorf("read %s@%d: non-EIO error %v", p, off, err)
			}
			for j := 0; j < m; j++ {
				if buf[j] != 0 && buf[j] != DataByte {
					return fmt.Errorf("SILENT CORRUPTION: %s@%d byte %d = %#x, want 0 or %#x", p, off, j, buf[j], DataByte)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err.Error()
	}
	return ""
}

// repairAndRemount runs the offline repairing fsck on a copy of the injured
// image and requires it to produce a clean, mountable, un-degraded file
// system. A repair that cannot even read the superblock is the one accepted
// dead end (there is no backup superblock to recover from).
func repairAndRemount(scratch *pmem.Device, opts winefs.Options, slowBlocks int64, res *FaultCampaignResult) string {
	rep, err := winefs.RepairTiered(scratch, slowBlocks)
	if err != nil {
		if errors.Is(err, vfs.ErrIO) || isPmemErr(err) {
			return "" // superblock itself is gone; EIO is the honest end state
		}
		return fmt.Sprintf("repair failed: %v", err)
	}
	if !rep.Clean {
		return fmt.Sprintf("repair left inconsistencies: %v", rep.PostErrors)
	}
	ctx := sim.NewCtx(3, 0)
	rfs, err := winefs.Mount(ctx, scratch, opts)
	if err != nil {
		return fmt.Sprintf("post-repair mount failed: %v", err)
	}
	aggressiveMarks(rfs)
	if reason, degraded := rfs.Degraded(); degraded {
		return fmt.Sprintf("post-repair mount degraded: %s", reason)
	}
	if err := rfs.Mkdir(ctx, "/.repaired"); err != nil {
		return fmt.Sprintf("post-repair write failed: %v", err)
	}
	if err := rfs.Audit(ctx); err != nil {
		return fmt.Sprintf("post-repair mount failed audit: %v", err)
	}
	res.Repaired++
	return ""
}

// campaignPromoteMin is the promotion heat bar of tiered runs: one touch
// brings a slow extent back, so the few-KiB workloads migrate both ways.
const campaignPromoteMin = 1

// aggressiveMarks sets the tier marks every tiered mount of the campaign
// starts with (a no-op untiered). The ACE workloads write a few KiB
// against a pool of ~16k blocks, so the marks must be effectively zero for
// any of it to spill: high water under one block means every data
// allocation goes slow and every aggressive pass demotes whatever lives in
// PM.
func aggressiveMarks(fs *winefs.FS) {
	fs.SetTierMarks(0.0001, 0.00005, campaignPromoteMin)
}

func isPmemErr(err error) bool {
	var me *pmem.MediaError
	var re *pmem.RangeError
	return errors.As(err, &me) || errors.As(err, &re)
}
