package winefs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/sim"
)

// ErrTxOverflow reports an operation that logs more entries than its
// journal has slots, so it cannot be one transaction. It fails while it is
// only staged — nothing has reached the media — and the process does not
// crash.
var ErrTxOverflow = errors.New("winefs: transaction exceeds the journal")

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
// immediately, so the live region is at most one transaction: one
// operation, however many entries it logs (the paper's system calls need
// at most 10, §3.6).
//
// The header records (tail, wraparound counter, last committed TxID); a
// transaction never straddles the wraparound point, so recovery examines at
// most one contiguous run of entries per journal.
//
// Scratch ownership. res is held from beginTx to commit or abort, so
// whatever is embedded in the journal has exactly one owner at a time, the
// thread inside the transaction, and beginning the next transaction resets
// it in place: nothing is allocated per transaction once the buffers have
// grown to the largest one yet, and nothing a transaction owns may be kept
// past its commit or abort. tx is the journal transaction (the staged
// metadata writes and the buffers of the pass that puts them on the media);
// op is the operation around it (fs.go, mtx: the inodes it tracks, the
// DRAM undo log, the blocks taken and detached, the CoW bounce block).
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
// No entry is encoded when it is written (format, recovery, the wrap at the
// top of apply), so the entry buffer is free.
func (j *journal) writeHeader(ctx *sim.Ctx, lastCommitted uint64) {
	b := encodeJournalHeader(j.tx.entries(1), j.wrap, j.tail, lastCommitted)
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

// encodeEntryTo encodes into a caller-owned EntrySize buffer, so a
// transaction encodes into its own entry buffer (txn.ents). The entry
// layout: magic u16 | typ u8 | len u8 | wrap u32 | txid u64 | addr u64 |
// data[32] | pad[8].
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

// passLines caps every device access of the pass that puts an operation on
// the media (apply): a read or a store of at most four cache lines is one
// latency, and a longer one is a bulk transfer that books the device port
// every other thread's transfers queue on (pmem chargeRead/chargeWrite).
const passLines = 4

// txn is an in-progress journal transaction — the whole of one operation:
// the one its journal embeds, reset by beginTx. It is bound to the per-CPU
// journal it was created in even if the simulated thread migrates (§3.6,
// "Handling thread migrations").
//
// The operation's metadata writes are staged (stage) and reach the media
// together, in one pass (apply), before the transaction seals: the journal
// is the only writer of metadata, so it reads, logs, fences and stores them
// once per operation. The buffers are slices the journal keeps across
// operations, grown to the largest yet, so a transaction allocates nothing
// once they have.
type txn struct {
	j         *journal
	id        uint64
	unflushed int // entries appended since the last flush

	// staged are the operation's writes in the order they were handed over,
	// and data their new bytes; logged counts the DATA entries they need.
	staged []region
	data   []byte
	logged int

	// The pass's buffers: staged in address order, the runs it reads in one
	// load each, the entries it appends (START, then DATA in staging order;
	// also the COMMIT entry and the journal header at a wrap, when no pass is
	// using them) and one run of old bytes. A device access makes its buffer
	// escape, so on the stack they would allocate.
	sorted, runs []region
	ents         []byte
	old          [passLines * pmem.CacheLine]byte
}

// region is a staged write — n bytes at addr, the new ones at data[at:],
// the old ones logged from entry ent on — or, in runs, a span that apply
// read in one load.
type region struct {
	addr    int64
	n       int
	at, ent int
}

func (r region) end() int64 { return r.addr + int64(r.n) }

// entries returns the entry buffer's first n entries, growing it if needed.
func (tx *txn) entries(n int) []byte {
	tx.ents = slices.Grow(tx.ents[:0], n*EntrySize)
	return tx.ents[:n*EntrySize]
}

// beginTx starts a transaction in cpu's journal. It reserves no entries:
// the paper's transactions reserve the most they may need before starting
// (§3.6), ours learn how many they take when they apply, which wraps the
// journal if they do not fit.
func (fs *FS) beginTx(ctx *sim.Ctx, cpu int) *txn {
	j := fs.journals[cpu]
	// Serialise transactions on this journal: holds both the host mutex
	// and the virtual-time resource until commit.
	j.res.Acquire(ctx)
	// §3.6: the shared transaction ID is an atomic counter incremented on
	// every transaction create, unique across all per-CPU journals. The
	// START entry goes out with the DATA entries (apply).
	tx := &j.tx
	tx.j, tx.id, tx.unflushed = j, atomic.AddUint64(&fs.nextTxID, 1), 0
	tx.staged, tx.data, tx.logged = tx.staged[:0], tx.data[:0], 0
	return tx
}

// stage hands the transaction n bytes of metadata to put at addr, and
// returns them for the caller to fill at once: a later stage may move them.
// apply logs the region's old bytes and stores these in its place. Staging
// a region the transaction already holds (the same addr and n) returns the
// same bytes — the second write replaces the first. An operation whose
// entries — START, a DATA entry per 32 bytes, COMMIT — would not fit the
// journal fails with ErrTxOverflow while it is still only staged.
func (tx *txn) stage(addr int64, n int) ([]byte, error) {
	for _, r := range tx.staged {
		if r.addr == addr && r.n == n {
			return tx.data[r.at : r.at+n], nil
		}
	}
	need := (n + undoBytes - 1) / undoBytes
	if 2+tx.logged+need > int(tx.j.fs.g.journalEntries())-1 {
		return nil, ErrTxOverflow
	}
	r := region{addr: addr, n: n, at: len(tx.data), ent: 1 + tx.logged}
	tx.staged = append(tx.staged, r)
	tx.logged += need
	tx.data = slices.Grow(tx.data, n)[:r.at+n]
	return tx.data[r.at:], nil
}

// apply puts the operation's staged writes on the media in one pass. If
// its entries do not fit before the journal's end, the journal wraps first.
// Then the old bytes: one checked read per run of adjacent cache lines that
// the writes touch, at most passLines long — never a line no write touches,
// so a poisoned line fails the operation exactly when one write's own read
// would have, and before any entry is stored. Then START and a DATA entry
// per 32 old bytes, appended in stores of at most passLines entries, one
// flush, one fence: every undo record is durable before the first in-place
// store. Then the new bytes, in staging order, each run flushed; commit
// fences them before COMMIT. An operation with nothing staged appends only
// START, which commit flushes with COMMIT.
func (tx *txn) apply(ctx *sim.Ctx) error {
	j := tx.j
	if j.tail+int64(2+tx.logged) > j.fs.g.journalEntries() {
		// Not enough contiguous room: wrap to the start. A transaction never
		// straddles the wrap point, which keeps recovery single-run. The
		// header is persisted only here (and at format and recovery), so the
		// common-case commit stays header-free; it names the newest
		// transaction this journal has resolved, the one before this.
		j.tail = 1
		j.wrap++
		j.writeHeader(ctx, tx.id-1)
		j.fs.dev.Fence(ctx)
	}
	t0 := ctx.Now()
	dev := j.fs.dev
	ents := tx.entries(1 + tx.logged)
	tx.sorted = append(tx.sorted[:0], tx.staged...)
	slices.SortStableFunc(tx.sorted, func(a, b region) int { return cmp.Compare(a.addr, b.addr) })
	sorted := tx.sorted
	tx.runs = tx.runs[:0]
	for i := 0; i < len(sorted); {
		run := region{addr: sorted[i].addr}
		hi := sorted[i].end()
		k := i + 1
		for ; k < len(sorted); k++ {
			r := sorted[k]
			end := max(hi, r.end())
			if r.addr/pmem.CacheLine > (hi-1)/pmem.CacheLine+1 || (end-1)/pmem.CacheLine-run.addr/pmem.CacheLine >= passLines {
				break
			}
			hi = end
		}
		run.n = int(hi - run.addr)
		// A poisoned line means the metadata about to be overwritten is
		// unreadable: the operation fails with EIO rather than log garbage.
		if err := dev.ReadChecked(ctx, tx.old[:run.n], run.addr); err != nil {
			ctx.Counters.JournalNS += ctx.Now() - t0
			return err
		}
		for _, r := range sorted[i:k] {
			tx.logOld(ents, r, tx.old[r.addr-run.addr:])
		}
		tx.runs = append(tx.runs, run)
		i = k
	}
	encodeEntryTo(ents[:EntrySize], &jentry{typ: entryStart, wrap: j.wrap, txid: tx.id})
	tx.append(ctx, ents)
	if len(tx.staged) > 0 {
		tx.flushEntries(ctx)
		dev.Fence(ctx)
	}
	ctx.Counters.JournalNS += ctx.Now() - t0
	for _, r := range tx.staged {
		dev.Write(ctx, tx.data[r.at:r.at+r.n], r.addr)
	}
	for _, run := range tx.runs {
		dev.Flush(ctx, run.addr, int64(run.n))
	}
	return nil
}

// logOld encodes r's DATA entries from its old bytes into ents.
func (tx *txn) logOld(ents []byte, r region, old []byte) {
	for p := 0; p < r.n; p += undoBytes {
		e := jentry{typ: entryData, n: uint8(min(undoBytes, r.n-p)), wrap: tx.j.wrap, txid: tx.id, addr: r.addr + int64(p)}
		copy(e.data[:e.n], old[p:])
		encodeEntryTo(ents[(r.ent+p/undoBytes)*EntrySize:], &e)
	}
}

// append writes whole encoded entries at the tail, in stores of at most
// passLines entries.
func (tx *txn) append(ctx *sim.Ctx, b []byte) {
	j := tx.j
	for len(b) > 0 {
		k := min(len(b), passLines*EntrySize)
		j.fs.dev.Write(ctx, b[:k], j.entryAddr(j.tail))
		ctx.Counters.JournalBytes += int64(k)
		j.tail += int64(k / EntrySize)
		tx.unflushed += k / EntrySize
		b = b[k:]
	}
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

// commit makes the transaction durable, reclaims its space and releases
// the journal. The caller must have applied it first (apply flushes the
// in-place updates and commit fences them: COMMIT durable implies the
// updates are durable). The journal header is NOT rewritten per transaction
// — space reclamation is logical (the DRAM tail advances; recovery scans
// forward from the last persisted header and ignores committed
// transactions).
func (tx *txn) commit(ctx *sim.Ctx) {
	sp := ctx.StartSpan("journal.commit")
	t0 := ctx.Now()
	j := tx.j
	j.fs.dev.Fence(ctx) // order in-place updates before COMMIT
	// The COMMIT slot is counted by stage's limit and apply's wrap.
	b := tx.entries(1)
	encodeEntryTo(b, &jentry{typ: entryCommit, wrap: j.wrap, txid: tx.id})
	tx.append(ctx, b)
	tx.flushEntries(ctx)
	j.fs.dev.Fence(ctx)
	ctx.Counters.JournalCommits++
	ctx.Counters.JournalNS += ctx.Now() - t0
	j.res.Release(ctx)
	ctx.EndSpan(sp)
}

// rollback resolves a transaction that will not commit. None of it is on
// the media — apply stores nothing before every old byte is read, and
// nothing fails after it — so rolling back is dropping what was staged. The
// journal stays held: mtx.abort restores the DRAM image before it lets go.
func (tx *txn) rollback(ctx *sim.Ctx) {
	tx.staged, tx.data, tx.logged = tx.staged[:0], tx.data[:0], 0
	ctx.Counters.JournalAborts++
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
		// Charge the scan: the header read.
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
