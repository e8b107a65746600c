package crashmonkey

import (
	"errors"
	"testing"

	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// TestFaultCampaign is the robustness headline: a thousand seeded
// workloads under poison and torn-write injection, and every single outcome
// must sit on the degradation ladder — transparent recovery, clean EIO, or
// read-only fallback. Zero panics, zero silently wrong bytes. The runs
// execute in parallel on host cores; the engine speedups are what let the
// campaign afford 1000 seeds in tier-1 time.
func TestFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign")
	}
	res := RunFaultCampaign(FaultCampaignConfig{Runs: 1000, Seed: 1})
	for i, f := range res.Failures {
		if i >= 5 {
			t.Errorf("... and %d more failures", len(res.Failures)-i)
			break
		}
		t.Errorf("%s", f)
	}
	if res.Runs < 100 {
		t.Fatalf("only %d runs", res.Runs)
	}
	// The campaign must actually exercise every rung, or the assertions
	// above are vacuous.
	if res.CleanRecoveries == 0 || res.Degraded == 0 {
		t.Fatalf("campaign did not cover the ladder: %s", res)
	}
	if res.DataEIOReads == 0 && res.EIOMounts == 0 {
		t.Fatalf("campaign never produced a clean EIO: %s", res)
	}
	// Half the runs mount with a slow tier and interleave migration passes;
	// a campaign where no pass ever moved an extent would be asserting
	// nothing about tier-migration crash consistency.
	if res.TierRuns == 0 || res.TierMigrations == 0 {
		t.Fatalf("campaign did not exercise tier migration: %s", res)
	}
	t.Logf("%s", res)
}

// TestFaultCampaignDeterministic: identical seeds must classify identically
// (the reproducibility contract of the fault plan).
func TestFaultCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign")
	}
	a := RunFaultCampaign(FaultCampaignConfig{Runs: 12, Seed: 99})
	b := RunFaultCampaign(FaultCampaignConfig{Runs: 12, Seed: 99})
	if a.String() != b.String() {
		t.Fatalf("campaign not deterministic:\n a: %s\n b: %s", a, b)
	}
}

// TestRepairPoisonedJournalTail is the acceptance scenario from the issue:
// poison the tail of a journal holding an uncommitted transaction, verify
// the mount degrades (it cannot prove the tx boundary), then run the
// repairing fsck and require a mountable, oracle-consistent file system.
func TestRepairPoisonedJournalTail(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Build a small tree, then crash mid-create so the journal holds an
	// in-flight transaction.
	for _, o := range []fstest.Op{{Kind: fstest.Mkdir, A: "/d"}, {Kind: fstest.Append, A: "/d/keep", Data: make([]byte, 8192)}} {
		if err := fstest.Apply(ctx, fs, o); err != nil {
			t.Fatal(err)
		}
	}
	before := vfs.State(ctx, fs)
	rec, err := dev.Record(func() error { _, err := fs.Create(ctx, "/d/inflight"); return err })
	if err != nil {
		t.Fatal(err)
	}
	after := vfs.State(ctx, fs)

	// Crash image: cut at the operation's last fence, then poison the
	// journal lines the in-flight transaction wrote (the "journal tail").
	scratch := rec.Cut(rec.Last())
	defer scratch.Release()
	jlo, jhi := winefs.JournalRegion(dev, 0)
	var tail []pmem.Store
	for _, s := range rec.Stores {
		if s.Off >= jlo && s.Off < jhi {
			tail = append(tail, s)
		}
	}
	if len(tail) == 0 {
		t.Fatal("create transaction wrote nothing to the journal")
	}
	for _, s := range tail {
		scratch.Poison(s.Off, int64(len(s.Data)))
	}

	// The mount must survive without panicking: either degraded (journal
	// unreadable) or failed with clean EIO.
	rctx := sim.NewCtx(2, 0)
	rfs, err := winefs.Mount(rctx, scratch, winefs.Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		if !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("mount failed with non-EIO error: %v", err)
		}
	} else if _, degraded := rfs.Degraded(); !degraded {
		t.Fatal("mount with a poisoned journal tail was not degraded")
	}

	// Repair must clear the poisoned tail and yield a clean image.
	rep, err := winefs.Repair(scratch)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("repair left inconsistencies: %v", rep.PostErrors)
	}
	if len(scratch.PoisonedLines(jlo, jhi-jlo)) != 0 {
		t.Fatal("repair left poison in the journal region")
	}

	// Post-repair mount must be writable and oracle-consistent. With an
	// undo journal, losing the tail forfeits rollback: if the operation's
	// in-place writes were durable it persists (after-state); otherwise the
	// structural passes mend back to the before-state. Either boundary is
	// a legal atomic outcome — anything in between is not.
	mctx := sim.NewCtx(3, 0)
	mfs, err := winefs.Mount(mctx, scratch, winefs.Options{CPUs: 1, InodesPerCPU: 512})
	if err != nil {
		t.Fatalf("post-repair mount: %v", err)
	}
	if reason, degraded := mfs.Degraded(); degraded {
		t.Fatalf("post-repair mount degraded: %s", reason)
	}
	got := vfs.State(mctx, mfs)
	if got != before && got != after {
		t.Fatalf("post-repair namespace diverged:\n got: %q\n pre: %q\npost: %q", got, before, after)
	}
	if err := mfs.Mkdir(mctx, "/new"); err != nil {
		t.Fatalf("post-repair write: %v", err)
	}
	if rep := winefs.Check(scratch); !rep.OK() {
		t.Fatalf("post-repair fsck: %v", rep.Errors)
	}
}
