package winefs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func auditFS(t *testing.T) (*FS, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := Mkfs(ctx, pmem.New(256<<20), Options{CPUs: 4, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctx
}

func TestAuditCleanAfterMkfs(t *testing.T) {
	fs, ctx := auditFS(t)
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("fresh FS fails audit: %v", err)
	}
}

// TestAuditCleanAfterChurn: create/write/grow/truncate/delete churn must
// leave the allocator accounting fully reconciled — free + used tiles the
// pool, caches match trees, StatFS agrees.
func TestAuditCleanAfterChurn(t *testing.T) {
	fs, ctx := auditFS(t)
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("/d/f%03d", i)
		f, err := fs.Create(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		// Mixed sizes: small hole allocations, hugepage-crossing extents,
		// fallocate slack.
		switch i % 4 {
		case 0:
			_, err = f.Append(ctx, make([]byte, 1000))
		case 1:
			_, err = f.WriteAt(ctx, make([]byte, 3<<20), 0)
		case 2:
			err = f.Fallocate(ctx, 0, 2<<20)
		case 3:
			if _, err = f.Append(ctx, make([]byte, 8192)); err == nil {
				err = f.Truncate(ctx, 100)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		f.Close(ctx)
		files = append(files, p)
	}
	for i, p := range files {
		if i%3 == 0 {
			if err := fs.Unlink(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after churn: %v", err)
	}
	// The audit itself is read-only: a second pass still reconciles.
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("second audit: %v", err)
	}
}

// TestAuditDetectsCacheDrift: corrupting the cached holeBlocks counter must
// be reported — this is exactly the accounting-drift class the auditor
// exists to catch.
func TestAuditDetectsCacheDrift(t *testing.T) {
	fs, ctx := auditFS(t)
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Append(ctx, make([]byte, 1000))
	f.Close(ctx)

	g := fs.alloc.groups[0]
	g.mu.Lock()
	g.holeBlocks.Add(7)
	g.mu.Unlock()

	err = fs.Audit(ctx)
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("audit missed the drift: %v", err)
	}
	found := false
	for _, v := range ae.Violations {
		if strings.Contains(v, "holeBlocks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("drift not named: %v", ae.Violations)
	}

	g.mu.Lock()
	g.holeBlocks.Add(-7)
	g.mu.Unlock()
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

// TestAuditDetectsLeak: dropping a free extent on the floor (allocated,
// never recorded, never freed) must show up as a tiling violation.
func TestAuditDetectsLeak(t *testing.T) {
	fs, ctx := auditFS(t)
	if _, ok := fs.alloc.allocAligned(ctx, 0); !ok {
		t.Fatal("allocAligned failed")
	}
	// The extent now belongs to no inode and no free pool: leaked.
	err := fs.Audit(ctx)
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("audit missed the leak: %v", err)
	}
	if !strings.Contains(ae.Error(), "tiling") && !strings.Contains(ae.Error(), "leak") {
		t.Fatalf("leak not named: %v", ae.Violations)
	}
}

// TestAuditDetectsPromotionViolation: a hole covering a whole aligned
// chunk violates the §3.6 promotion invariant.
func TestAuditDetectsPromotionViolation(t *testing.T) {
	fs, ctx := auditFS(t)
	g := fs.alloc.groups[0]
	g.mu.Lock()
	// Steal an aligned extent and reinsert it as a raw hole, bypassing
	// addHoleLocked's promotion.
	b, ok := g.takeAlignedLocked()
	if !ok {
		g.mu.Unlock()
		t.Fatal("no aligned extent")
	}
	g.holes.Insert(b, BlocksPerHuge)
	g.publishLocked()
	g.mu.Unlock()

	err := fs.Audit(ctx)
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("audit missed the promotion violation: %v", err)
	}
	found := false
	for _, v := range ae.Violations {
		if strings.Contains(v, "promotion invariant") {
			found = true
		}
	}
	if !found {
		t.Fatalf("promotion violation not named: %v", ae.Violations)
	}
}

// TestAuditDetectsDramMediaSkew: the DRAM image drifting from the media —
// what an error path that rolls back one side and not the other leaves —
// must be named, whichever part drifts; a record the media cannot return
// is passed over.
func TestAuditDetectsDramMediaSkew(t *testing.T) {
	fs, ctx := auditFS(t)
	f, err := fs.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(ctx, make([]byte, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	ino := f.(*File).ino
	skewed := func(what string) {
		t.Helper()
		var ae *AuditError
		if err := fs.Audit(ctx); !errors.As(err, &ae) {
			t.Fatalf("%s: audit missed the skew: %v", what, err)
		}
		for _, v := range ae.Violations {
			if strings.Contains(v, "DRAM/media skew") {
				return
			}
		}
		t.Fatalf("%s: skew not named: %v", what, ae.Violations)
	}

	// An extent attached behind the file system's back: in DRAM, with a
	// slot, and nothing on the media.
	blk, ok := fs.alloc.allocAligned(ctx, 0)
	if !ok {
		t.Fatal("allocAligned failed")
	}
	ino.extents = append(ino.extents, extRec{wextent{fileBlk: 1000, blk: blk, length: BlocksPerHuge}, len(ino.extents)})
	skewed("extent without a record, header without its count")
	if err := fs.writeInodeHeader(ctx, nil, ino); err != nil {
		t.Fatal(err)
	}
	skewed("extent without a record")

	// With the record's line poisoned the media cannot say either way.
	addr, err := fs.extSlotAddr(ctx, nil, ino, len(ino.extents)-1)
	if err != nil {
		t.Fatal(err)
	}
	fs.dev.Poison(addr, extentSize)
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit reported a record the media cannot return: %v", err)
	}
	fs.dev.ClearPoison(addr, extentSize)

	// Persisted, the same extent is no skew at all.
	if err := fs.writeExtentSlot(ctx, nil, ino, len(ino.extents)-1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after persisting the record: %v", err)
	}

	x := ino.extents
	x[0].slot, x[1].slot = x[1].slot, x[0].slot
	skewed("slots swapped")
	x[0].slot, x[1].slot = x[1].slot, x[0].slot

	x[1].slot = x[0].slot
	skewed("slot named twice")
	x[1].slot = 1

	// Every header field mount trusts: the record count and the first
	// indirect pointer were covered above (an extent the header does not
	// count) and are by any operation that forgets the header.
	ino.size++
	skewed("size")
	ino.size--
	ino.nlink++
	skewed("link count")
	ino.nlink--
	ino.flags ^= flagAligned
	skewed("flags")
	ino.flags ^= flagAligned
	ino.typ = typeDir
	skewed("type")
	ino.typ = typeFile
	if err := fs.Audit(ctx); err != nil {
		t.Fatalf("audit after undoing the mutations: %v", err)
	}
}
