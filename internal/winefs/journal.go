package winefs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/sim"
)

// ErrTxOverflow reports a journal transaction that tried to exceed its
// MaxTxEntries reservation. The transaction is aborted (rolled back via
// its undo log) and the operation fails; the process does not crash.
var ErrTxOverflow = errors.New("winefs: transaction exceeds reserved journal entries")

// Journal entry types (§3.6: START, COMMIT or DATA).
const (
	entryStart  = 1
	entryCommit = 2
	entryData   = 3
)

const (
	entryMagic = 0x4A4E // "JN"
	// undoBytes is the old-data payload per DATA entry.
	undoBytes = 32
)

// journal is one per-CPU fine-grained undo journal (§3.5): a circular
// array of 64-byte entries on PM, preceded by a 64-byte header. Because
// every operation is synchronous, committed transactions are reclaimed
// immediately, so the live region is at most one transaction (≤ 10
// entries, §3.6).
//
// The header records (tail, wraparound counter, last committed TxID); a
// transaction never straddles the wraparound point, so recovery examines at
// most one contiguous run of entries per journal.
//
// Scratch ownership. res is held from beginTx to commit or abort — and
// across the seam of a chained operation (mtx.undo, Resource.Reacquire) —
// so whatever is embedded in the journal has exactly one owner at a time,
// the thread inside the transaction, and beginning the next transaction
// resets it in place: nothing is allocated per transaction, and nothing a
// transaction owns may be kept past its commit or abort. tx is the journal
// transaction (undo log and entry scratch); op is the operation around it
// (fs.go, mtx: the inodes it tracks, the DRAM undo log, the blocks taken and
// detached, the CoW bounce block). tx.scratch, one cache line, is busy only for the length of
// one device write — a journal entry (append), the in-place update whose
// undo was just logged (extent record, inode header, dirent, chain
// pointer: mtx.scratch), the header at wrap — each user fills the bytes it
// writes and the device has copied them when Write returns, so the uses
// never overlap.
type journal struct {
	fs   *FS
	cpu  int
	base int64 // byte address of the header entry
	res  sim.Resource

	// DRAM cursor state (rebuilt from the header at mount).
	tail int64 // next entry slot to write, in [1, entries]
	wrap uint32

	tx txn
	op mtx
}

// journal header layout: magic u32 | wrap u32 | tail u64 | lastCommitted u64.
// No transaction is open when it is written (format, recovery, the wrap at
// the top of start), so the entry scratch is free.
func (j *journal) writeHeader(ctx *sim.Ctx, lastCommitted uint64) {
	b := encodeJournalHeader(j.tx.scratch[:], j.wrap, j.tail, lastCommitted)
	j.fs.dev.Write(ctx, b, j.base)
	j.fs.dev.Flush(ctx, j.base, EntrySize)
	ctx.Counters.JournalBytes += EntrySize
}

// encodeJournalHeader encodes into a caller-owned EntrySize buffer and
// returns it.
func encodeJournalHeader(b []byte, wrap uint32, tail int64, lastCommitted uint64) []byte {
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[0:], entryMagic)
	le.PutUint32(b[4:], wrap)
	le.PutUint64(b[8:], uint64(tail))
	le.PutUint64(b[16:], lastCommitted)
	return b
}

func (j *journal) readHeader() (wrap uint32, tail int64, lastCommitted uint64, err error) {
	b := make([]byte, EntrySize)
	if err := j.fs.dev.ReadAtChecked(b, j.base); err != nil {
		return 0, 0, 0, err
	}
	le := binary.LittleEndian
	if m := le.Uint32(b[0:]); m != entryMagic {
		// A header with the wrong magic cannot be trusted to say whether an
		// uncommitted transaction is pending; the caller degrades or repairs.
		return 0, 0, 0, fmt.Errorf("winefs: journal %d header bad magic %#x", j.cpu, m)
	}
	return le.Uint32(b[4:]), int64(le.Uint64(b[8:])), le.Uint64(b[16:]), nil
}

func (j *journal) entryAddr(slot int64) int64 { return j.base + slot*EntrySize }

// jentry is a decoded journal entry.
type jentry struct {
	typ  uint8
	n    uint8
	wrap uint32
	txid uint64
	addr int64
	data [undoBytes]byte
}

// entry layout: magic u16 | typ u8 | len u8 | wrap u32 | txid u64 |
// addr u64 | data[32] | pad[8].
func encodeEntry(e *jentry) []byte {
	b := make([]byte, EntrySize)
	encodeEntryTo(b, e)
	return b
}

// encodeEntryTo encodes into a caller-owned EntrySize buffer, so the hot
// append path can reuse one scratch buffer per transaction.
func encodeEntryTo(b []byte, e *jentry) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], entryMagic)
	b[2] = e.typ
	b[3] = e.n
	le.PutUint32(b[4:], e.wrap)
	le.PutUint64(b[8:], e.txid)
	le.PutUint64(b[16:], uint64(e.addr))
	copy(b[24:24+undoBytes], e.data[:])
	for i := 24 + undoBytes; i < EntrySize; i++ {
		b[i] = 0
	}
}

func decodeEntry(b []byte) (jentry, bool) {
	le := binary.LittleEndian
	if le.Uint16(b[0:]) != entryMagic {
		return jentry{}, false
	}
	e := jentry{
		typ:  b[2],
		n:    b[3],
		wrap: le.Uint32(b[4:]),
		txid: le.Uint64(b[8:]),
		addr: int64(le.Uint64(b[16:])),
	}
	copy(e.data[:], b[24:24+undoBytes])
	return e, e.typ >= entryStart && e.typ <= entryData
}

// txn is an in-progress journal transaction: the one its journal embeds,
// reset by start. It is bound to the per-CPU journal it was created in
// even if the simulated thread migrates (§3.6, "Handling thread
// migrations").
type txn struct {
	j         *journal
	id        uint64
	opened    int64 // virtual time the transaction was created (post-Acquire)
	wrote     int
	unflushed int
	// undoLog mirrors the DATA entries in DRAM so abort can roll the
	// covered regions back without re-reading the journal. It aliases
	// undoBuf, which is sized for the largest possible transaction
	// (MaxTxEntries minus the START and COMMIT slots), so recording undo
	// never allocates.
	undoLog []jentry
	undoBuf [MaxTxEntries - 2]jentry
	// scratch is the one-cache-line encoding buffer (see the ownership
	// rule on journal).
	scratch [EntrySize]byte
}

// beginTx starts a transaction in cpu's journal, reserving MaxTxEntries
// entries (§3.6: "every journal transaction reserves the maximum number of
// log entries that it requires ... before starting").
func (fs *FS) beginTx(ctx *sim.Ctx, cpu int) *txn {
	j := fs.journals[cpu]
	// Serialise transactions on this journal: holds both the host mutex
	// and the virtual-time resource until commit.
	j.res.Acquire(ctx)
	return j.start(ctx)
}

// start opens the journal's transaction — the one txn it owns, reset.
// Caller holds j.res.
func (j *journal) start(ctx *sim.Ctx) *txn {
	fs := j.fs
	entries := fs.g.journalEntries()
	if j.tail+MaxTxEntries > entries {
		// Not enough contiguous room: wrap to the start. Transactions never
		// straddle the wrap point, which keeps recovery single-run. The
		// header is persisted only here (and at format time), so the
		// common-case commit stays header-free.
		j.tail = 1
		j.wrap++
		j.writeHeader(ctx, atomic.LoadUint64(&fs.nextTxID))
		fs.dev.Fence(ctx)
	}
	// §3.6: the shared transaction ID is an atomic counter incremented on
	// every transaction create, unique across all per-CPU journals.
	id := atomic.AddUint64(&fs.nextTxID, 1)
	tx := &j.tx
	tx.j, tx.id, tx.opened, tx.wrote, tx.unflushed = j, id, ctx.Now(), 0, 0
	tx.undoLog = tx.undoBuf[:0]
	// The START entry is the first of a fresh reservation; it cannot
	// overflow.
	_ = tx.append(ctx, &jentry{typ: entryStart, wrap: j.wrap, txid: id})
	ctx.Counters.JournalNS += ctx.Now() - tx.opened
	return tx
}

// append writes one entry into the transaction's reservation. The last
// reserved slot is held back for the COMMIT record, so an oversized
// transaction fails with ErrTxOverflow while it can still be resolved.
func (tx *txn) append(ctx *sim.Ctx, e *jentry) error {
	j := tx.j
	limit := MaxTxEntries - 1
	if e.typ == entryCommit {
		limit = MaxTxEntries
	}
	if tx.wrote >= limit {
		return fmt.Errorf("%w (%d entries)", ErrTxOverflow, MaxTxEntries)
	}
	b := tx.scratch[:]
	encodeEntryTo(b, e)
	addr := j.entryAddr(j.tail)
	j.fs.dev.Write(ctx, b, addr)
	ctx.Counters.JournalBytes += EntrySize
	j.tail++
	tx.wrote++
	tx.unflushed++
	return nil
}

// flushEntries flushes the journal entries appended since the last flush
// (one clwb pass over the contiguous run — cheaper than per-entry flushes).
func (tx *txn) flushEntries(ctx *sim.Ctx) {
	if tx.unflushed == 0 {
		return
	}
	start := tx.j.entryAddr(tx.j.tail - int64(tx.unflushed))
	tx.j.fs.dev.Flush(ctx, start, int64(tx.unflushed)*EntrySize)
	tx.unflushed = 0
}

// undo records the current contents of [addr, addr+n) so a crash before
// commit rolls the region back. n may exceed undoBytes; the range is split
// across entries. Call undo before modifying the region: the entries are
// fenced before undo returns, because an in-place update must never become
// durable ahead of its undo record.
func (tx *txn) undo(ctx *sim.Ctx, addr int64, n int) error {
	t0 := ctx.Now()
	defer func() { ctx.Counters.JournalNS += ctx.Now() - t0 }()
	for n > 0 {
		k := n
		if k > undoBytes {
			k = undoBytes
		}
		e := jentry{typ: entryData, n: uint8(k), wrap: tx.j.wrap, txid: tx.id, addr: addr}
		// The old contents come off the media; a poisoned line here means
		// the metadata about to be overwritten is unreadable, so the
		// operation must fail with EIO rather than log garbage. Reading
		// straight into the entry's data array skips a scratch allocation.
		if err := tx.j.fs.dev.ReadChecked(ctx, e.data[:k], addr); err != nil {
			return err
		}
		if err := tx.append(ctx, &e); err != nil {
			return err
		}
		tx.undoLog = append(tx.undoLog, e)
		addr += int64(k)
		n -= k
	}
	tx.flushEntries(ctx)
	tx.j.fs.dev.Fence(ctx)
	return nil
}

// commit makes the transaction durable and reclaims its space. The caller
// must have flushed+fenced all its in-place updates first (undo journaling:
// COMMIT durable implies the updates are durable). The journal header is
// NOT rewritten per transaction — space reclamation is logical (the DRAM
// tail advances; recovery scans forward from the last persisted header and
// ignores committed transactions).
func (tx *txn) commit(ctx *sim.Ctx) {
	sp := ctx.StartSpan("journal.commit")
	tx.seal(ctx)
	tx.j.res.Release(ctx)
	ctx.EndSpan(sp)
}

// relink commits the transaction and opens the next in the same journal
// without letting go of it in between — the seam of a chained operation,
// whose state (j.op) must not be handed to another thread half-way. The
// clock and the calendar move as under commit followed by beginTx.
func (tx *txn) relink(ctx *sim.Ctx) {
	sp := ctx.StartSpan("journal.commit")
	tx.seal(ctx)
	ctx.EndSpan(sp)
	tx.j.res.Reacquire(ctx)
	tx.j.start(ctx)
}

// seal is commit up to the point the journal would be released.
func (tx *txn) seal(ctx *sim.Ctx) {
	t0 := ctx.Now()
	j := tx.j
	j.fs.dev.Fence(ctx) // order in-place updates before COMMIT
	// The COMMIT slot is reserved by append's limit; this cannot fail.
	_ = tx.append(ctx, &jentry{typ: entryCommit, wrap: j.wrap, txid: tx.id})
	tx.flushEntries(ctx)
	j.fs.dev.Fence(ctx)
	ctx.Counters.JournalCommits++
	ctx.Counters.JournalNS += ctx.Now() - t0
	j.fs.notifyCommit(tx.id)
}

// rollback restores every journaled region from the in-DRAM undo log in
// reverse order, then a COMMIT entry marks the transaction resolved (its
// net effect is nothing, so recovery must not roll it back again — the
// journaled regions may be rewritten by later transactions). The journal
// stays held: mtx.abort restores the DRAM image before it lets go.
func (tx *txn) rollback(ctx *sim.Ctx) {
	t0 := ctx.Now()
	defer func() { ctx.Counters.JournalNS += ctx.Now() - t0 }()
	j := tx.j
	for i := len(tx.undoLog) - 1; i >= 0; i-- {
		e := tx.undoLog[i]
		j.fs.dev.Write(ctx, e.data[:e.n], e.addr)
		j.fs.dev.Flush(ctx, e.addr, int64(e.n))
	}
	j.fs.dev.Fence(ctx)
	_ = tx.append(ctx, &jentry{typ: entryCommit, wrap: j.wrap, txid: tx.id})
	tx.flushEntries(ctx)
	j.fs.dev.Fence(ctx)
	ctx.Counters.JournalAborts++
	j.fs.notifyCommit(tx.id)
}

// uncommittedTx describes one in-flight transaction found during recovery.
type uncommittedTx struct {
	txid uint64
	undo []jentry // DATA entries in append order
}

// scanJournal walks the journal forward from the last persisted header
// (written at format and wrap time only) and returns the trailing
// uncommitted transaction, if any, plus the largest TxID observed. A
// media error on the header or an entry ends the scan with the error; the
// caller decides whether to degrade.
func (j *journal) scanJournal() (*uncommittedTx, uint64, error) {
	wrap, tail, lastCommitted, hdrErr := j.readHeader()
	if hdrErr != nil {
		return nil, 0, hdrErr
	}
	entries := j.fs.g.journalEntries()
	var scanErr error
	read := func(slot int64) (jentry, bool) {
		b := make([]byte, EntrySize)
		if err := j.fs.dev.ReadAtChecked(b, j.entryAddr(slot)); err != nil {
			scanErr = err
			return jentry{}, false
		}
		return decodeEntry(b)
	}
	var maxSeen uint64
	tryRun := func(start int64, expectWrap uint32) *uncommittedTx {
		var tx *uncommittedTx
		for slot := start; slot < entries; slot++ {
			e, ok := read(slot)
			if !ok || e.wrap != expectWrap || e.txid <= lastCommitted {
				break
			}
			if e.txid > maxSeen {
				maxSeen = e.txid
			}
			switch e.typ {
			case entryStart:
				tx = &uncommittedTx{txid: e.txid}
			case entryData:
				if tx != nil && e.txid == tx.txid {
					tx.undo = append(tx.undo, e)
				}
			case entryCommit:
				if tx != nil && e.txid == tx.txid {
					tx = nil // complete transaction: nothing to roll back
				}
			}
		}
		return tx
	}
	if tail >= 1 && tail <= entries {
		if tx := tryRun(tail, wrap); tx != nil {
			return tx, maxSeen, scanErr
		}
		// The in-flight transaction may have started right after a wrap
		// whose header write did not persist.
		if tx := tryRun(1, wrap+1); tx != nil {
			return tx, maxSeen, scanErr
		}
		return nil, maxSeen, scanErr
	}
	return nil, maxSeen, scanErr
}

// recoverJournals rolls back every uncommitted transaction across all
// per-CPU journals, in descending global TxID order (§3.6, "Journal
// Recovery"). Returns the number of transactions rolled back. A journal
// whose entries are unreadable (media error) is skipped — its in-flight
// transaction cannot be rolled back safely — and the mount degrades to
// read-only with the error recorded.
func (fs *FS) recoverJournals(ctx *sim.Ctx) int {
	var pending []*uncommittedTx
	failed := make(map[int]bool)
	maxID := fs.nextTxID
	for _, j := range fs.journals {
		tx, seen, err := j.scanJournal()
		if err != nil {
			// The in-flight transaction (if any) cannot be rolled back
			// safely from a partial scan; leave the journal untouched so a
			// repaired mount can still see it, and degrade.
			failed[j.cpu] = true
			fs.degrade("journal %d unreadable during recovery: %v", j.cpu, err)
		} else if tx != nil {
			pending = append(pending, tx)
		}
		if seen > maxID {
			maxID = seen
		}
		// Charge the scan: reading the header plus up to MaxTxEntries.
		ctx.Counters.PMReadBytes += EntrySize
		ctx.Advance(fs.model.ReadLat64)
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].txid > pending[k].txid })
	for _, tx := range pending {
		// Apply undo records in reverse order.
		for i := len(tx.undo) - 1; i >= 0; i-- {
			e := tx.undo[i]
			fs.dev.Write(ctx, e.data[:e.n], e.addr)
			fs.dev.Flush(ctx, e.addr, int64(e.n))
		}
		fs.dev.Fence(ctx)
	}
	// Reset every journal: mark all transactions resolved.
	for _, p := range pending {
		if p.txid > maxID {
			maxID = p.txid
		}
	}
	fs.nextTxID = maxID
	for _, j := range fs.journals {
		if failed[j.cpu] {
			continue
		}
		j.tail = 1
		j.wrap++
		j.writeHeader(ctx, maxID)
	}
	fs.dev.Fence(ctx)
	return len(pending)
}

// initJournal prepares a fresh journal at mkfs time.
func (j *journal) format(ctx *sim.Ctx) {
	j.fs.dev.ZeroRange(j.base, JournalBlocks*BlockSize)
	j.tail = 1
	j.wrap = 1
	j.writeHeader(ctx, 0)
}

// loadJournal restores the DRAM cursor at mount: the header gives the
// start of the current wrap segment; the cursor is the first slot after
// the entries already written in this segment. A media error is returned
// so the mount can degrade; the cursor is left at a safe position (the
// journal will not be written in degraded mode).
func (j *journal) load() error {
	wrap, tail, _, err := j.readHeader()
	if err != nil {
		j.tail = 1
		j.wrap = 1
		return err
	}
	j.wrap = wrap
	j.tail = tail
	entries := j.fs.g.journalEntries()
	if j.tail < 1 || j.tail > entries {
		j.tail = 1
		j.wrap++
		return nil
	}
	b := make([]byte, EntrySize)
	for j.tail < entries {
		if err := j.fs.dev.ReadAtChecked(b, j.entryAddr(j.tail)); err != nil {
			return err
		}
		e, ok := decodeEntry(b)
		if !ok || e.wrap != j.wrap {
			break
		}
		j.tail++
	}
	return nil
}
