package winefs

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func mk(t *testing.T) (*FS, *sim.Ctx, *pmem.Device) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(128 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctx, dev
}

// put stages b at addr in a raw transaction and applies it: START, the
// DATA entries and the new bytes are on the media, COMMIT is not.
func put(t testing.TB, ctx *sim.Ctx, tx *txn, addr int64, b []byte) {
	t.Helper()
	buf, err := tx.stage(addr, len(b))
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, b)
	if err := tx.apply(ctx); err != nil {
		t.Fatal(err)
	}
}

// touch is put of the n bytes already at addr: a logged write that changes
// nothing.
func touch(t testing.TB, ctx *sim.Ctx, tx *txn, addr int64, n int) {
	t.Helper()
	b := make([]byte, n)
	tx.j.fs.dev.ReadAt(b, addr)
	put(t, ctx, tx, addr, b)
}

func TestJournalEntryCodec(t *testing.T) {
	e := jentry{typ: entryData, n: 17, wrap: 3, txid: 42, addr: 0xdeadbeef}
	copy(e.data[:], "old-bytes")
	b := encodeEntry(&e)
	if len(b) != EntrySize {
		t.Fatalf("entry size %d", len(b))
	}
	got, ok := decodeEntry(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.typ != e.typ || got.n != e.n || got.wrap != e.wrap || got.txid != e.txid || got.addr != e.addr {
		t.Fatalf("decoded %+v", got)
	}
	if string(got.data[:9]) != "old-bytes" {
		t.Fatal("payload lost")
	}
	if _, ok := decodeEntry(make([]byte, EntrySize)); ok {
		t.Fatal("zero entry decoded as valid")
	}
}

func TestTxnCommitReclaims(t *testing.T) {
	fs, ctx, _ := mk(t)
	j := fs.journals[0]
	tailBefore := j.tail
	tx := fs.beginTx(ctx, 0)
	touch(t, ctx, tx, fs.g.inodeAddr(1), 32)
	tx.commit(ctx)
	// After commit, the header's durable tail equals the DRAM tail and no
	// uncommitted transaction is found.
	if j.tail <= tailBefore {
		t.Fatal("tail did not advance")
	}
	if tx2, _, _ := j.scanJournal(); tx2 != nil {
		t.Fatalf("found uncommitted tx after commit: %+v", tx2)
	}
}

func TestUncommittedTxRollsBack(t *testing.T) {
	fs, ctx, dev := mk(t)
	addr := fs.g.inodeAddr(2)
	orig := []byte("ORIGINAL-CONTENT-32-BYTES-LONG!!")
	dev.WriteAt(orig, addr)

	// Start a transaction, clobber the region through it (undo logged,
	// new bytes in place)... then "crash" before commit (simply don't
	// commit).
	tx := fs.beginTx(ctx, 0)
	put(t, ctx, tx, addr, []byte("GARBAGE-GARBAGE-GARBAGE-GARBAGE!"))
	tx.j.res.Release(ctx) // release without committing (simulated crash)

	found, _, _ := fs.journals[0].scanJournal()
	if found == nil || found.txid != tx.id || len(found.undo) != 1 {
		t.Fatalf("scan found %+v", found)
	}
	n := fs.recoverJournals(ctx)
	if n != 1 {
		t.Fatalf("recovered %d txs", n)
	}
	got := make([]byte, 32)
	dev.ReadAt(got, addr)
	if string(got) != string(orig) {
		t.Fatalf("rollback failed: %q", got)
	}
	// After recovery the journal is empty again.
	if tx2, _, _ := fs.journals[0].scanJournal(); tx2 != nil {
		t.Fatal("journal not clean after recovery")
	}
}

func TestJournalWraparound(t *testing.T) {
	fs, ctx, _ := mk(t)
	j := fs.journals[0]
	entries := fs.g.journalEntries()
	// Run enough transactions to wrap several times.
	rounds := int(entries/3)*2 + 10
	for i := 0; i < rounds; i++ {
		tx := fs.beginTx(ctx, 0)
		touch(t, ctx, tx, fs.g.inodeAddr(1), 16)
		tx.commit(ctx)
	}
	if j.wrap < 2 {
		t.Fatalf("journal never wrapped: wrap=%d", j.wrap)
	}
	// Still consistent: no phantom uncommitted transactions.
	if tx, _, _ := j.scanJournal(); tx != nil {
		t.Fatalf("phantom tx after wraparound: %+v", tx)
	}
	// And an uncommitted tx right after a wrap is still found.
	j.tail = entries - 2 // force the next tx to wrap
	tx := fs.beginTx(ctx, 0)
	touch(t, ctx, tx, fs.g.inodeAddr(1), 8)
	tx.j.res.Release(ctx)
	found, _, _ := j.scanJournal()
	if found == nil || found.txid != tx.id {
		t.Fatalf("wrap-straddling tx not found: %+v", found)
	}
}

func TestRecoveryOrdersAcrossJournals(t *testing.T) {
	fs, ctx, dev := mk(t)
	addr := fs.g.inodeAddr(3)
	dev.WriteAt([]byte("VERSION0"), addr)

	// Tx A on CPU 0 logs VERSION0 then writes VERSION1; tx B on CPU 1 logs
	// VERSION1 then writes VERSION2. Neither commits. Rollback must apply
	// B's undo first (higher TxID), then A's — ending at VERSION0.
	txA := fs.beginTx(ctx, 0)
	put(t, ctx, txA, addr, []byte("VERSION1"))
	txA.j.res.Release(ctx)

	txB := fs.beginTx(ctx, 1)
	put(t, ctx, txB, addr, []byte("VERSION2"))
	txB.j.res.Release(ctx)

	if txB.id <= txA.id {
		t.Fatal("global TxIDs not increasing")
	}
	if n := fs.recoverJournals(ctx); n != 2 {
		t.Fatalf("recovered %d", n)
	}
	got := make([]byte, 8)
	dev.ReadAt(got, addr)
	if string(got) != "VERSION0" {
		t.Fatalf("cross-journal rollback order wrong: %q", got)
	}
}

// MaxTxEntries is the most log entries any system call needs in the paper
// (§3.6: "across all system calls, the maximum number of log-entries
// required are 10, occupying 640 bytes"). The journal does not enforce it
// — an operation logs what it writes — but namespace operations still fit
// it, and the wraparound tests measure "near the end" in it.
const MaxTxEntries = 10

func TestMaxTxEntriesRespected(t *testing.T) {
	// Every namespace operation is one journal transaction within the
	// paper's 10-entry budget, for representative shapes.
	fs, ctx, _ := mk(t)
	j := fs.journals[0]
	ops := []func() error{
		func() error { _, err := fs.Create(ctx, "/a"); return err },
		func() error { return fs.Mkdir(ctx, "/d") },
		func() error { _, err := fs.Create(ctx, "/d/x"); return err },
		func() error { return fs.Rename(ctx, "/d/x", "/d/y") },
		func() error { return fs.Unlink(ctx, "/d/y") },
		func() error { return fs.Rmdir(ctx, "/d") },
	}
	for i, op := range ops {
		commits, tail := ctx.Counters.JournalCommits, j.tail
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got := ctx.Counters.JournalCommits - commits; got != 1 {
			t.Fatalf("op %d used %d journal transactions, want 1", i, got)
		}
		if got := j.tail - tail; got > MaxTxEntries {
			t.Fatalf("op %d logged %d entries, over the budget of %d", i, got, MaxTxEntries)
		}
	}
}

// TestOnePassStoreOrder pins the order an operation reaches the media in,
// read off the device's store trace, whose fence epochs are what the crash
// model persists by. Every operation is one transaction — one START, one
// COMMIT — however many entries it logs: START and the DATA entries share
// one epoch, in stores of at most passLines lines; every region a DATA
// entry logs is then stored in place, and all those stores share one later
// epoch — the fence after the entries orders each undo record before its
// update; and COMMIT comes in a later epoch still, so the updates are
// durable before it. Over an append, a create, a rename and a strict
// copy-on-write over twenty-four extents.
func TestOnePassStoreOrder(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(64 << 20)
	fs, err := Mkfs(ctx, dev, Options{CPUs: 1, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create(ctx, "/f")
	g, _ := fs.Create(ctx, "/g")
	for i := 0; i < 24; i++ { // interleaved: /f is 24 one-block extents
		if _, err := f.Append(ctx, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Append(ctx, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	jlo, jhi := JournalRegion(dev, 0)
	ops := []struct {
		name string
		cow  bool
		run  func() error
	}{
		{"append", false, func() error { _, err := f.Append(ctx, make([]byte, BlockSize)); return err }},
		{"create", false, func() error { _, err := fs.Create(ctx, "/h"); return err }},
		{"rename", false, func() error { return fs.Rename(ctx, "/h", "/i") }},
		{"copy-on-write over 24 extents", true, func() error { _, err := f.WriteAt(ctx, make([]byte, 24*BlockSize), 0); return err }},
	}
	for _, op := range ops {
		commits := ctx.Counters.JournalCommits
		cow := ctx.Counters.CoWCopies
		rec, err := dev.Record(op.run)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if op.cow && ctx.Counters.CoWCopies == cow {
			t.Fatalf("%s copied nothing on write", op.name)
		}
		if got := ctx.Counters.JournalCommits - commits; got != 1 {
			t.Errorf("%s committed %d transactions, want 1", op.name, got)
		}
		if starts, sealed := checkPassOrder(t, op.name, rec.Stores, jlo, jhi); starts != 1 || sealed != 1 {
			t.Errorf("%s: the trace shows %d STARTs and %d COMMITs, want one of each", op.name, starts, sealed)
		}
	}
}

// checkPassOrder walks a store trace transaction by transaction (see
// TestOnePassStoreOrder) and returns how many it saw start and seal.
func checkPassOrder(t *testing.T, op string, trace []pmem.Store, jlo, jhi int64) (starts, sealed int) {
	t.Helper()
	type logged struct {
		addr     int64
		n, epoch int
		applied  bool
	}
	var (
		open            bool
		data            []logged
		entryEpoch, upd int
	)
	for _, s := range trace {
		if s.Off >= jlo && s.Off < jhi {
			if len(s.Data) > passLines*EntrySize || len(s.Data)%EntrySize != 0 {
				t.Errorf("%s: a journal store of %d bytes", op, len(s.Data))
			}
			for p := 0; p+EntrySize <= len(s.Data); p += EntrySize {
				e, ok := decodeEntry(s.Data[p : p+EntrySize])
				if !ok {
					t.Fatalf("%s: an undecodable journal entry at %d", op, s.Off+int64(p))
				}
				switch e.typ {
				case entryStart:
					open, data, entryEpoch, upd = true, data[:0], s.Epoch, -1
					starts++
				case entryData:
					if !open || s.Epoch != entryEpoch {
						t.Errorf("%s: a DATA entry outside its transaction's START epoch", op)
					}
					data = append(data, logged{addr: e.addr, n: int(e.n), epoch: s.Epoch})
				case entryCommit:
					for _, d := range data {
						if !d.applied {
							t.Errorf("%s: [%d,+%d) logged and never stored in place", op, d.addr, d.n)
						}
					}
					if upd >= 0 && s.Epoch <= upd {
						t.Errorf("%s: COMMIT in epoch %d, an in-place store in %d", op, s.Epoch, upd)
					}
					open = false
					sealed++
				}
			}
			continue
		}
		if !open {
			continue
		}
		for i := range data {
			d := &data[i]
			if s.Off >= d.addr+int64(d.n) || s.Off+int64(len(s.Data)) <= d.addr {
				continue
			}
			if s.Epoch <= d.epoch {
				t.Errorf("%s: store at %d in epoch %d, its DATA entry in %d", op, s.Off, s.Epoch, d.epoch)
			}
			if upd >= 0 && s.Epoch != upd {
				t.Errorf("%s: in-place stores in epochs %d and %d", op, upd, s.Epoch)
			}
			upd = s.Epoch
			if s.Off <= d.addr && s.Off+int64(len(s.Data)) >= d.addr+int64(d.n) {
				d.applied = true
			}
		}
	}
	return starts, sealed
}

func TestHeaderSurvivesReload(t *testing.T) {
	fs, ctx, _ := mk(t)
	for i := 0; i < 7; i++ {
		tx := fs.beginTx(ctx, 1)
		touch(t, ctx, tx, fs.g.inodeAddr(1), 8)
		tx.commit(ctx)
	}
	j := fs.journals[1]
	tail, wrap := j.tail, j.wrap
	j.tail, j.wrap = 0, 0
	j.load()
	if j.tail != tail || j.wrap != wrap {
		t.Fatalf("reload: tail=%d/%d wrap=%d/%d", j.tail, tail, j.wrap, wrap)
	}
}

// TestCrashDuringCreateIsAtomic: a crash at any fence of a create recovers
// to the namespace without the file or with all of it.
func TestCrashDuringCreateIsAtomic(t *testing.T) {
	everyCut(t, func(ctx *sim.Ctx, fs *FS) error {
		_, err := fs.Create(ctx, "/pre") // so the create is a pure metadata op
		return err
	}, func(ctx *sim.Ctx, fs *FS) error {
		_, err := fs.Create(ctx, "/victim")
		return err
	})
}

// TestCrashStatesOfUnlink: a crash at any fence of an unlink recovers to
// the file whole, bytes included, or gone.
func TestCrashStatesOfUnlink(t *testing.T) {
	everyCut(t, func(ctx *sim.Ctx, fs *FS) error {
		f, err := fs.Create(ctx, "/doomed")
		if err == nil {
			_, err = f.WriteAt(ctx, []byte("data"), 0)
		}
		return err
	}, func(ctx *sim.Ctx, fs *FS) error { return fs.Unlink(ctx, "/doomed") })
}

// everyCut runs setup on a fresh mount, records op, and recovers a crash at
// every fence of op: each recovered mount must show what the live one
// showed before op or after it, and once every store is durable, after it.
func everyCut(t *testing.T, setup, op func(*sim.Ctx, *FS) error) {
	t.Helper()
	fs, ctx, dev := mk(t)
	if err := setup(ctx, fs); err != nil {
		t.Fatal(err)
	}
	before := vfs.State(ctx, fs)
	rec, err := dev.Record(func() error { return op(ctx, fs) })
	if err != nil || len(rec.Stores) == 0 {
		t.Fatalf("the operation stored %d times: %v", len(rec.Stores), err)
	}
	after := vfs.State(ctx, fs)
	for cut := 0; cut <= rec.Last()+1; cut++ {
		dev.Restore(rec.Cut(cut))
		rctx := sim.NewCtx(2, 0)
		rfs, err := Mount(rctx, dev, Options{CPUs: 2})
		if err != nil {
			t.Fatalf("cut %d: mount: %v", cut, err)
		}
		if got := vfs.State(rctx, rfs); got != after && (got != before || cut > rec.Last()) {
			t.Fatalf("cut %d of %d recovers\n%s\nbefore:\n%s\nafter:\n%s", cut, rec.Last()+1, got, before, after)
		}
	}
}

func TestRecoveryTimeScalesWithFiles(t *testing.T) {
	// §5.2: recovery time depends on the number of files, not data volume.
	times := make(map[int]int64)
	for _, nFiles := range []int{10, 100} {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(256 << 20)
		fs, _ := Mkfs(ctx, dev, Options{CPUs: 4})
		for i := 0; i < nFiles; i++ {
			f, _ := fs.Create(ctx, fmt.Sprintf("/f%d", i))
			f.WriteAt(ctx, make([]byte, 4096), 0)
		}
		rctx := sim.NewCtx(2, 0)
		if _, err := Mount(rctx, dev, Options{CPUs: 4}); err != nil {
			t.Fatal(err)
		}
		times[nFiles] = rctx.Now()
	}
	if times[100] <= times[10] {
		t.Fatalf("recovery time not increasing with files: %v", times)
	}
}
