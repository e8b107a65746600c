package winefs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/rbtree"
	"repro/internal/recycle"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Options configure a WineFS instance. Mkfs reads every field; Mount reads
// only Mode, NUMAAware and Tier. The geometry (CPUs, InodesPerCPU) comes
// from the superblock Mkfs wrote, and the ablations apply only to the FS
// Mkfs returns: they are not recorded on the image.
type Options struct {
	// CPUs is the number of logical CPUs the partition is split across.
	// Default 8.
	CPUs int
	// Mode selects strict (default per the paper) or relaxed guarantees.
	Mode vfs.ConsistencyMode
	// InodesPerCPU sizes the per-CPU inode tables (0 = auto).
	InodesPerCPU int64
	// NUMAAware enables the home-node write-routing policy (§3.6). Only
	// meaningful on devices with more than one node.
	NUMAAware bool

	// Tier attaches a slow (SSD-like) capacity tier behind the PM
	// partition (tier.go). Nil mounts are pure-PM and behave exactly as
	// before. The same TierOptions must be passed to Mkfs and every
	// subsequent Mount of the image — the slow device holds data the
	// extent records point at.
	Tier *TierOptions

	// Ablations, for winebench -run ablation (experiments.Ablation):

	// AblateAlignment disables the aligned-extent pool — every allocation
	// is served from holes and freed space is never promoted back to
	// aligned extents, i.e. WineFS with an alignment-blind allocator.
	AblateAlignment bool
	// AblateSingleJournal routes every transaction through CPU 0's
	// journal, i.e. WineFS with PMFS's single-journal concurrency.
	AblateSingleJournal bool
}

// dirLookupCost is the virtual-time cost of one DRAM red-black-tree
// directory lookup step (§3.5, "DRAM indexes").
const dirLookupCost = 150

// FS is a mounted WineFS instance.
type FS struct {
	dev   *pmem.Device
	as    *mmu.AddressSpace
	model *pmem.CostModel
	mode  vfs.ConsistencyMode
	g     geometry

	alloc    *allocator
	journals []*journal
	nextTxID uint64
	locks    *vfs.LockTable

	// shards hold the DRAM inode map, sharded by owning per-CPU inode
	// table (shard.go).
	shards []*inodeShard
	// recs is the storage extent lists grow from (insertRec); a dead
	// file's list goes back to it (destroyInode).
	recs recycle.Pool[extRec]

	numaOn        bool
	homeMu        sync.Mutex
	homes         map[int]int // simulated thread → home NUMA node
	singleJournal bool

	// Reactive-rewrite queue (§3.6). The queue holds inode *objects*, not
	// bare numbers: an inode number freed while queued can be reused by a
	// brand-new file, and a number-keyed queue would then rewrite the
	// wrong file. rewriteQueued doubles as the in-flight guard — an entry
	// stays marked from enqueue until its rewrite finishes, so concurrent
	// mmaps can never double-enqueue.
	rewriteMu     sync.Mutex
	rewriteQ      []*inode
	rewriteQueued map[*inode]bool

	// Tiered storage (tier.go): nil on pure-PM mounts.
	tier *tierState

	// maintMu serialises the maintenance passes (DefragPass, TierPass).
	// defragCursor holds the defragmenter's per-group scan cursors
	// (DRAM-only — crash recovery restarts the scan; each migration is
	// already crash-atomic through the journal).
	maintMu      sync.Mutex
	defragCursor []int64
	maint        maintScratch

	// unmounted gates the background maintenance threads (rewriter,
	// defragmenter): after Unmount serialises the allocator state, a
	// still-queued rewrite or defrag pass must not mutate the image.
	unmounted atomic.Bool

	// Degradation ladder (media faults): a mount that hits unreadable or
	// corrupt metadata continues best-effort but falls back to read-only;
	// degradedFlag gates every mutating operation and degradedReasons
	// records why, for Degraded() and operators.
	degradedFlag    atomic.Bool
	degradedMu      sync.Mutex
	degradedReasons []string

	// mapHook, when set, fires with the inode number whenever a memory
	// mapping attaches (mmap.go); the file server uses it to revoke
	// client leases that would otherwise go stale under DAX stores.
	mapHook atomic.Pointer[func(ino uint64)]
}

// maintScratch is what the maintenance passes (DefragPass, TierPass)
// reuse from pass to pass, guarded by fs.maintMu: a pass decides what to
// move, and moves it, without allocating.
type maintScratch struct {
	inodes          []*inode     // the inode snapshot
	pm, slow, promo []tierCand   // TierPass's candidate lists
	chunks          []defragCand // defragCandidates' chunk tally
	move            moveScratch  // both passes' migrations
}

// degrade switches the file system to read-only mode, recording why. It is
// idempotent and safe from any goroutine.
func (fs *FS) degrade(format string, args ...interface{}) {
	fs.degradedMu.Lock()
	fs.degradedReasons = append(fs.degradedReasons, fmt.Sprintf(format, args...))
	fs.degradedMu.Unlock()
	fs.degradedFlag.Store(true)
}

// Degraded reports whether the file system fell back to read-only mode
// because of media faults, and the first recorded reason.
func (fs *FS) Degraded() (reason string, degraded bool) {
	if !fs.degradedFlag.Load() {
		return "", false
	}
	fs.degradedMu.Lock()
	defer fs.degradedMu.Unlock()
	if len(fs.degradedReasons) > 0 {
		reason = fs.degradedReasons[0]
	}
	return reason, true
}

// writable gates mutating operations: a degraded file system returns
// ErrReadOnly instead of touching PM.
func (fs *FS) writable() error {
	if fs.degradedFlag.Load() {
		return vfs.ErrReadOnly
	}
	return nil
}

// mapDevErr translates device-level media/range errors into the vfs EIO
// error applications expect; other errors pass through.
func mapDevErr(err error) error {
	var me *pmem.MediaError
	var re *pmem.RangeError
	if errors.As(err, &me) || errors.As(err, &re) {
		return fmt.Errorf("%w: %v", vfs.ErrIO, err)
	}
	return err
}

// isMediaErr reports whether err originates from a media fault or a corrupt
// on-PM pointer (rather than, say, ENOSPC).
func isMediaErr(err error) bool {
	var me *pmem.MediaError
	var re *pmem.RangeError
	return errors.As(err, &me) || errors.As(err, &re)
}

// failTx handles an error raised in the middle of a journal transaction:
// the transaction is rolled back and the DRAM image of the inodes it was
// changing goes back with it (mtx.abort), so the failed call leaves no
// trace on either side. If the failure was a media fault
// the file system also degrades to read-only: what else the fault made
// unreadable is unknown, so further mutation is unsafe.
func (fs *FS) failTx(tx *mtx, op string, err error) error {
	tx.abort()
	if isMediaErr(err) {
		fs.degrade("media error during %s: %v", op, err)
	}
	return mapDevErr(err)
}

// inode is the DRAM image of a file or directory.
type inode struct {
	fs  *FS
	ino uint64
	// ilock is the inode's lock in fs.locks, asked for once (lock).
	ilock atomic.Pointer[vfs.InodeLock]

	mu       sync.RWMutex // host-level consistency of the fields below
	typ      uint8
	flags    uint32
	size     int64
	nlink    uint32
	extents  []extRec // sorted by fileBlk
	indirect []int64  // indirect extent blocks, in chain order

	dir *dirIndex // directories only

	// mappings are the live mmaps of this file; the reactive rewriter
	// shoots them down after swapping the extent map.
	mappings []*mmu.Mapping
}

// extRec is one extent of a file and the PM record slot that holds it.
// The list is sorted by file offset and the records are dense, so after a
// removal the two orders differ (recRemove).
type extRec struct {
	wextent
	slot int
}

// lock returns the inode's virtual-time lock. The table is consulted on
// first use only; from then on the inode locks through the object it was
// given, which Drop (destroyInode) orphans rather than invalidates — a new
// inode reusing the number is a new object and asks the table afresh.
func (ino *inode) lock() *vfs.InodeLock {
	if l := ino.ilock.Load(); l != nil {
		return l
	}
	l := ino.fs.locks.Inode(ino.ino)
	if !ino.ilock.CompareAndSwap(nil, l) {
		l = ino.ilock.Load() // a concurrent first locker won; all use its object
	}
	return l
}

// typNow reads the inode type under its lock: namespace pre-checks race
// with a concurrent unlink/rmdir/rename flipping the type to typeFree.
func (ino *inode) typNow() uint8 {
	ino.mu.RLock()
	t := ino.typ
	ino.mu.RUnlock()
	return t
}

type dentry struct {
	ino  uint64
	addr int64 // PM address of the dirent slot
}

type dirIndex struct {
	tree      *rbtree.Tree[string, dentry]
	freeSlots []int64 // PM addresses of reusable dirent slots
}

func newDirIndex() *dirIndex {
	return &dirIndex{tree: rbtree.New[string, dentry](func(a, b string) bool { return a < b })}
}

// Mkfs formats dev and returns a mounted, empty WineFS.
func Mkfs(ctx *sim.Ctx, dev *pmem.Device, opts Options) (*FS, error) {
	if opts.CPUs <= 0 {
		opts.CPUs = 8
	}
	fs := &FS{
		dev:           dev,
		as:            mmu.NewAddressSpace(dev),
		model:         dev.Model(),
		mode:          opts.Mode,
		g:             makeGeometry(dev.Size()/BlockSize, opts.CPUs, opts.InodesPerCPU),
		locks:         vfs.NewLockTable(),
		numaOn:        opts.NUMAAware && dev.Nodes() > 1,
		homes:         make(map[int]int),
		singleJournal: opts.AblateSingleJournal,
	}
	if fs.g.poolBlocks <= 0 {
		return nil, fmt.Errorf("winefs: device too small (%d blocks)", fs.g.totalBlocks)
	}
	if err := fs.initTier(opts.Tier); err != nil {
		return nil, err
	}
	fs.shards = newShards(fs.g.cpus)
	fs.alloc = newAllocator(fs)
	fs.alloc.noAlignment = opts.AblateAlignment
	fs.alloc.initEmpty()
	for c := 0; c < opts.CPUs; c++ {
		j := &journal{fs: fs, cpu: c, base: fs.g.journalBase(c)}
		fs.journals = append(fs.journals, j)
		j.format(ctx)
	}
	// Zero the inode tables so every slot reads as free.
	for c := 0; c < opts.CPUs; c++ {
		fs.dev.ZeroRange(fs.g.inodeTableBase(c), fs.g.inodesPerCPU*InodeSize)
	}
	fs.initInodeFree()
	// Root directory: ino 1 (CPU 0, slot 0).
	root := &inode{fs: fs, ino: 1, typ: typeDir, nlink: 2, dir: newDirIndex()}
	fs.putInode(root)
	fs.removeFreeIno(0, 0)
	_ = fs.writeInodeHeader(ctx, nil, root) // nil tx: cannot fail
	fs.dev.Fence(ctx)
	fs.writeSuper(ctx, false)
	return fs, nil
}

func (fs *FS) initInodeFree() {
	for c := 0; c < fs.g.cpus; c++ {
		g := fs.alloc.groups[c]
		if int64(cap(g.inodeFree)) < fs.g.inodesPerCPU {
			g.inodeFree = make([]int64, 0, fs.g.inodesPerCPU)
		}
		g.inodeFree = g.inodeFree[:0]
		for s := int64(0); s < fs.g.inodesPerCPU; s++ {
			g.inodeFree = append(g.inodeFree, s)
		}
	}
}

func (fs *FS) removeFreeIno(cpu int, slot int64) {
	g := fs.alloc.groups[cpu]
	for i, s := range g.inodeFree {
		if s == slot {
			g.inodeFree = append(g.inodeFree[:i], g.inodeFree[i+1:]...)
			return
		}
	}
}

// allocIno takes a free inode slot, preferring the caller's CPU and
// stealing from the fullest table otherwise.
func (fs *FS) allocIno(ctx *sim.Ctx, cpu int) (uint64, error) {
	// Probe order: the caller's CPU first, then 0..cpus-1 skipping it —
	// generated on the fly rather than materialised into a slice (with 128
	// CPUs the order slice was a per-create 1KiB allocation).
	for k := -1; k < fs.g.cpus; k++ {
		c := k
		if k < 0 {
			c = cpu
		} else if k == cpu {
			continue
		}
		g := fs.alloc.groups[c]
		g.mu.Lock()
		if n := len(g.inodeFree); n > 0 {
			slot := g.inodeFree[n-1]
			g.inodeFree = g.inodeFree[:n-1]
			g.mu.Unlock()
			ctx.Advance(allocCost)
			return fs.g.inoFor(c, slot), nil
		}
		g.mu.Unlock()
	}
	return 0, vfs.ErrNoSpace
}

func (fs *FS) freeIno(ino uint64) {
	cpu := fs.g.cpuOfIno(ino)
	slot := int64(ino-1) % fs.g.inodesPerCPU
	g := fs.alloc.groups[cpu]
	g.mu.Lock()
	g.inodeFree = append(g.inodeFree, slot)
	g.mu.Unlock()
}

// --- PM persistence helpers ----------------------------------------------

func (fs *FS) writeSuper(ctx *sim.Ctx, clean bool) {
	sb := superblock{
		magic:        Magic,
		version:      1,
		totalBlocks:  fs.g.totalBlocks,
		cpus:         int32(fs.g.cpus),
		inodesPerCPU: fs.g.inodesPerCPU,
		clean:        clean,
		nextTxID:     fs.nextTxID,
	}
	fs.dev.Write(ctx, sb.encode(), 0)
	fs.dev.Flush(ctx, 0, sbSize)
	fs.dev.Fence(ctx)
}

// header is the inode's header as the media should hold it.
func (ino *inode) header() dinode {
	di := dinode{
		magic:    inodeMagic,
		typ:      ino.typ,
		flags:    ino.flags,
		size:     ino.size,
		nlink:    ino.nlink,
		extCount: uint32(len(ino.extents)),
	}
	if len(ino.indirect) > 0 {
		di.indirect = ino.indirect[0]
	}
	if ino.typ == typeFree {
		di.magic = 0
	}
	return di
}

// writeInodeHeader hands the inode's header piece to tx, or, with no
// transaction (mkfs), persists it. Operations do not call it: the
// transaction writes the headers of the inodes it tracks (mtx.finish).
func (fs *FS) writeInodeHeader(ctx *sim.Ctx, tx *mtx, ino *inode) error {
	addr := fs.g.inodeAddr(ino.ino)
	di := ino.header()
	if tx == nil {
		fs.dev.Write(ctx, di.encodeHeader(make([]byte, inoHeaderSize)), addr)
		fs.dev.Flush(ctx, addr, inoHeaderSize)
		return nil
	}
	b, err := tx.write(addr, inoHeaderSize)
	if err == nil {
		di.encodeHeader(b)
	}
	return err
}

// extSlotAddr returns the PM address of extent record `slot`, following
// (and if tx != nil, extending) the indirect chain as needed.
func (fs *FS) extSlotAddr(ctx *sim.Ctx, tx *mtx, ino *inode, slot int) (int64, error) {
	if slot < InlineExtents {
		return fs.g.inlineExtentAddr(ino.ino, slot), nil
	}
	idx := slot - InlineExtents
	chain := idx / extPerIndirect
	for len(ino.indirect) <= chain {
		if tx == nil {
			return 0, fmt.Errorf("winefs: missing indirect block %d for ino %d", chain, ino.ino)
		}
		// Extend the chain with a fresh metadata block from the hole pool.
		var ok bool
		if tx.took, ok = fs.alloc.allocSmallTo(ctx, tx.cpu, 1, tx.took); !ok {
			return 0, vfs.ErrNoSpace
		}
		blk := tx.took[len(tx.took)-1].Start
		fs.dev.ZeroRange(blk*BlockSize, BlockSize)
		if len(ino.indirect) > 0 {
			// Linked from the previous block (the first is linked from the
			// inode header and journaled with it).
			pb, err := tx.write(ino.indirect[len(ino.indirect)-1]*BlockSize, 8)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(pb, uint64(blk))
		}
		tx.note(ino, undoIndirect, 0)
		ino.indirect = append(ino.indirect, blk)
	}
	base := ino.indirect[chain] * BlockSize
	return base + 8 + int64(idx%extPerIndirect)*extentSize, nil
}

// writeExtentSlot hands extent record i of the inode to tx, or, with no
// transaction, persists it.
func (fs *FS) writeExtentSlot(ctx *sim.Ctx, tx *mtx, ino *inode, i int) error {
	addr, err := fs.extSlotAddr(ctx, tx, ino, ino.extents[i].slot)
	if err != nil {
		return err
	}
	if tx == nil {
		b := make([]byte, extentSize)
		encodeExtent(b, ino.extents[i].wextent)
		fs.dev.Write(ctx, b, addr)
		fs.dev.Flush(ctx, addr, extentSize)
		return nil
	}
	b, err := tx.write(addr, extentSize)
	if err == nil {
		encodeExtent(b, ino.extents[i].wextent)
	}
	return err
}

// mtx is an operation: one journal transaction (§3.6), however many
// entries it logs, and the operation's memory — the one mtx a journal
// embeds (see the ownership rule on journal), handed out by begin and dead
// at finish or abort. What it holds beside the transaction is who the
// operation is about — the inodes it may change (inos) — and the DRAM half
// of a rollback. The operation changes those inodes in DRAM and hands the
// journal their extent records and dirents as it goes (write); their
// headers are the transaction's to write, each once, at finish. The
// journal is the only writer of metadata and undoes the media; the
// snapshots in inos, log, took and dropped undo what the same operation
// did to the in-memory image and to the allocator, so that a failed call
// leaves DRAM where the rolled-back media is (abort).
type mtx struct {
	fs  *FS
	ctx *sim.Ctx
	cpu int
	tx  *txn

	// inos are the tracked inodes, in the order finish writes their
	// headers: a file; or the inodes of a namespace operation — child,
	// victim, one parent or both.
	inos [4]tracked
	n    int
	// log is the inverse of every change made to a tracked inode's extent
	// list and indirect chain, oldest first (note).
	log []extUndo
	// took holds the blocks the operation took from the allocator — it is
	// the scratch the allocators append their results to — and so what an
	// abort gives back.
	took []alloc.Extent
	// dropped holds the blocks detached from a tracked inode (detachRange).
	// They go back to the allocator at commit, not before: until then the
	// media the journal would roll back to still owns them, and so does the
	// file again after an abort.
	dropped []alloc.Extent
	// blk bounces one block's old bytes into its copy (cowRange).
	blk [BlockSize]byte
}

// tracked is one inode of the operation and what abort puts back: the
// header fields as begin found them and, for a directory, how many free
// dirent slots it had (direntSlot either pops one — it is still in the
// backing array — or appends a new block's worth).
type tracked struct {
	ino   *inode
	typ   uint8
	flags uint32
	size  int64
	nlink uint32
	nfree int
}

// extUndo is one step of the DRAM undo log: how to take back one change to
// an inode's extent list.
type extUndo struct {
	op  uint8
	ino *inode
	i   int    // index in ino.extents
	e   extRec // the extent and its record slot at i before the change
}

const (
	undoSet      = iota // extents[i] was overwritten
	undoInsert          // an extent was inserted at i
	undoRemove          // the extent at i was removed
	undoIndirect        // a block was appended to the indirect chain
)

// begin opens an operation on the caller's journal. inos are the inodes it
// may change, at most four: the caller holds the mu of each exclusively
// until finish or failTx returns, and a brand-new inode comes in as what
// was there before it (typeFree).
func (fs *FS) begin(ctx *sim.Ctx, inos ...*inode) *mtx {
	cpu := fs.txCPU(ctx)
	tx := fs.beginTx(ctx, cpu)
	m := &tx.j.op
	m.fs, m.ctx, m.cpu, m.tx = fs, ctx, cpu, tx
	m.log, m.took, m.dropped = m.log[:0], m.took[:0], m.dropped[:0]
	m.n = len(inos)
	for k, ino := range inos {
		t := tracked{ino: ino, typ: ino.typ, flags: ino.flags, size: ino.size, nlink: ino.nlink}
		if ino.dir != nil {
			t.nfree = len(ino.dir.freeSlots)
		}
		m.inos[k] = t
	}
	return m
}

// txCPU picks the journal for a new transaction: the thread's current CPU,
// possibly redirected to its NUMA home node (§3.6).
func (fs *FS) txCPU(ctx *sim.Ctx) int {
	if fs.singleJournal {
		return 0
	}
	cpu := ctx.CPU
	if fs.numaOn {
		cpu = fs.homeCPU(ctx)
	}
	if cpu >= fs.g.cpus {
		cpu %= fs.g.cpus
	}
	return cpu
}

// write is how an operation changes metadata on the media: it returns n
// bytes for the caller to fill, before its next write, with the new
// contents of [addr, addr+n), which the journal stores — after logging the
// old ones — when the operation finishes (txn.stage, txn.apply).
func (m *mtx) write(addr int64, n int) ([]byte, error) {
	return m.tx.stage(addr, n)
}

// note logs the inverse of a change about to be made to ino's extent list
// at index i (or, for undoIndirect, to its chain). Call it before the
// change: it reads the old value.
func (m *mtx) note(ino *inode, op uint8, i int) {
	if m == nil {
		return
	}
	u := extUndo{op: op, ino: ino, i: i}
	if op == undoSet || op == undoRemove {
		u.e = ino.extents[i]
	}
	m.log = append(m.log, u)
}

// finish ends the operation: every tracked inode's header is written, once
// and journaled like any other step, the operation goes on the media in
// one pass (txn.apply), the detached blocks return to the allocator and the
// transaction commits. It is the only place an operation persists a
// header, so no path can change an inode — its size, its link count, how
// many extent records mount should read — and forget to say so. err is
// what the operation's own steps came to: if they failed, or a header
// write or the pass does, the operation aborts instead (failTx) and the
// mapped error comes back.
func (m *mtx) finish(op string, err error) error {
	for k := 0; k < m.n && err == nil; k++ {
		err = m.fs.writeInodeHeader(m.ctx, m, m.inos[k].ino)
	}
	if err == nil {
		err = m.tx.apply(m.ctx)
	}
	if err != nil {
		return m.fs.failTx(m, op, err)
	}
	for _, e := range m.dropped {
		m.fs.alloc.free(m.ctx, e)
	}
	m.tx.commit(m.ctx)
	return nil
}

// abort rolls back the operation's journal transaction — none of it reached
// the media (txn.rollback) — takes the tracked inodes' DRAM image back with
// it and releases the journal: a failed call leaves no trace on either
// side. The extent lists and the indirect chains return, from the log, to
// what they were when the operation began, and type, flags, size, link
// count and a directory's free dirent slots from the snapshots; the blocks
// the operation took go back to the allocator, and the blocks it detached
// are the file's again (they were never freed).
func (m *mtx) abort() {
	fs, ctx := m.fs, m.ctx
	m.tx.rollback(ctx)
	defer m.tx.j.res.Release(ctx)
	for k := len(m.log) - 1; k >= 0; k-- {
		u := m.log[k]
		ino := u.ino
		switch u.op {
		case undoSet:
			ino.extents[u.i] = u.e
		case undoInsert:
			ino.extents = slices.Delete(ino.extents, u.i, u.i+1)
		case undoRemove:
			fs.insertRec(ino, u.i, u.e)
		case undoIndirect:
			ino.indirect = ino.indirect[:len(ino.indirect)-1]
		}
	}
	for _, t := range m.inos[:m.n] {
		ino := t.ino
		ino.typ, ino.flags, ino.size, ino.nlink = t.typ, t.flags, t.size, t.nlink
		if ino.dir != nil {
			ino.dir.freeSlots = ino.dir.freeSlots[:t.nfree]
		}
	}
	for _, e := range m.took {
		fs.alloc.free(ctx, e)
	}
}

// --- path resolution -------------------------------------------------------

// resolve walks path to its inode, charging one DRAM index lookup per
// component.
func (fs *FS) resolve(ctx *sim.Ctx, path string) (*inode, error) {
	cur := fs.getInode(1)
	// A clean path is "/" or "/a/b/c": walk it in place, no component slice.
	for comp, rest := "", vfs.Clean(path)[1:]; rest != ""; {
		comp, rest, _ = strings.Cut(rest, "/")
		ctx.Advance(dirLookupCost)
		cur.mu.RLock()
		if cur.typ != typeDir {
			cur.mu.RUnlock()
			return nil, vfs.ErrNotDir
		}
		de, ok := cur.dir.tree.Get(comp)
		cur.mu.RUnlock()
		if !ok {
			return nil, vfs.ErrNotExist
		}
		next := fs.getInode(de.ino)
		if next == nil {
			return nil, vfs.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// resolveParent returns the parent directory inode and final name.
func (fs *FS) resolveParent(ctx *sim.Ctx, path string) (*inode, string, error) {
	dir, name, err := vfs.SplitParent(path)
	if err != nil {
		return nil, "", err // operating on root
	}
	if len(name) > MaxNameLen {
		return nil, "", fmt.Errorf("winefs: name %q too long", name)
	}
	p, err := fs.resolve(ctx, dir)
	if err != nil {
		return nil, "", err
	}
	if p.typNow() != typeDir {
		return nil, "", vfs.ErrNotDir
	}
	return p, name, nil
}

// --- directory entry persistence -------------------------------------------

// direntSlot obtains a free dirent slot address in dir, growing the
// directory by one hole block when needed.
func (fs *FS) direntSlot(ctx *sim.Ctx, tx *mtx, dir *inode) (int64, error) {
	if n := len(dir.dir.freeSlots); n > 0 {
		addr := dir.dir.freeSlots[n-1]
		dir.dir.freeSlots = dir.dir.freeSlots[:n-1]
		return addr, nil
	}
	// Grow the directory: dirent blocks come from the hole pool so that
	// metadata never consumes aligned extents ("controlled fragmentation").
	var ok bool
	if tx.took, ok = fs.alloc.allocSmallTo(ctx, tx.cpu, 1, tx.took); !ok {
		return 0, vfs.ErrNoSpace
	}
	blk := tx.took[len(tx.took)-1].Start
	fs.dev.Zero(ctx, blk*BlockSize, BlockSize)
	fileBlk := int64(0)
	if n := len(dir.extents); n > 0 {
		last := dir.extents[n-1]
		fileBlk = last.fileBlk + last.length
	}
	if err := fs.recAppend(ctx, tx, dir, wextent{fileBlk: fileBlk, blk: blk, length: 1}); err != nil {
		return 0, err
	}
	base := blk * BlockSize
	for i := int64(DirentSize); i < BlockSize; i += DirentSize {
		dir.dir.freeSlots = append(dir.dir.freeSlots, base+i)
	}
	return base, nil
}

// writeDirent hands tx a dirent at addr.
func writeDirent(tx *mtx, addr int64, ino uint64, name string) error {
	b, err := tx.write(addr, DirentSize)
	if err == nil {
		encodeDirent(b, ino, name)
	}
	return err
}

// clearDirent hands tx the invalidation of the dirent at addr.
func clearDirent(tx *mtx, addr int64) error {
	b, err := tx.write(addr+8, 1) // the valid byte
	if err == nil {
		b[0] = 0
	}
	return err
}

// --- vfs.FS implementation --------------------------------------------------

// Name implements vfs.FS.
func (fs *FS) Name() string {
	if fs.mode == vfs.Strict {
		return "WineFS"
	}
	return "WineFS-relaxed"
}

// Mode implements vfs.FS.
func (fs *FS) Mode() vfs.ConsistencyMode { return fs.mode }

// Create implements vfs.FS: it creates (or truncates-opens) a regular file.
func (fs *FS) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	ino, existed, err := fs.mknod(ctx, path, typeFile)
	if err != nil {
		return nil, err
	}
	if existed && (ino == nil || ino.typNow() == typeDir) {
		return nil, vfs.ErrIsDir
	}
	return &File{fs: fs, ino: ino}, nil
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(ctx *sim.Ctx, path string) error {
	_, existed, err := fs.mknod(ctx, path, typeDir)
	if existed {
		return vfs.ErrExist
	}
	return err
}

// mknod is Create and Mkdir: a new inode of type typ under the name path,
// in one transaction — the dirent, the child's header and the parent's (it
// may have grown a dirent block, and gains a link from a new directory's
// ".."). A name that exists is not an error here: its inode (nil if the
// dirent is dangling) comes back with existed set, for the caller to judge.
func (fs *FS) mknod(ctx *sim.Ctx, path string, typ uint8) (ino *inode, existed bool, err error) {
	ctx.Syscall(fs.model.SyscallNS)
	if err := fs.writable(); err != nil {
		return nil, false, err
	}
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return nil, false, err
	}
	h := parent.lock().Lock(ctx)
	defer h.Unlock(ctx)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if de, ok := parent.dir.tree.Get(name); ok {
		return fs.getInode(de.ino), true, nil
	}

	inoNum, err := fs.allocIno(ctx, fs.txCPU(ctx))
	if err != nil {
		return nil, false, err
	}
	child := &inode{fs: fs, ino: inoNum} // typeFree: what the slot holds until the transaction commits
	op := "create"
	tx := fs.begin(ctx, child, parent)
	child.typ, child.nlink = typ, 1
	if typ == typeDir {
		op = "mkdir"
		child.nlink, child.dir = 2, newDirIndex()
		parent.nlink++
	} else {
		// §3.6: files directly within a directory inherit its alignment
		// attribute (rsync/cp receive-side behaviour).
		child.flags = parent.flags & flagAligned
	}
	slotAddr, err := fs.direntSlot(ctx, tx, parent)
	if err == nil {
		err = writeDirent(tx, slotAddr, inoNum, name)
	}
	if err = tx.finish(op, err); err != nil {
		fs.freeIno(inoNum)
		return nil, false, err
	}
	fs.putInode(child)
	parent.dir.tree.Set(name, dentry{ino: inoNum, addr: slotAddr})
	return child, false, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	ctx.Syscall(fs.model.SyscallNS)
	ino, err := fs.resolve(ctx, path)
	if err != nil {
		return nil, err
	}
	if ino.typNow() == typeDir {
		return nil, vfs.ErrIsDir
	}
	return &File{fs: fs, ino: ino}, nil
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(ctx *sim.Ctx, path string) error { return fs.remove(ctx, path, typeFile) }

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(ctx *sim.Ctx, path string) error { return fs.remove(ctx, path, typeDir) }

// remove is Unlink (typ = typeFile) and Rmdir (typeDir): the name goes, and
// what it named with it (dropName), in one transaction.
func (fs *FS) remove(ctx *sim.Ctx, path string, typ uint8) error {
	ctx.Syscall(fs.model.SyscallNS)
	if err := fs.writable(); err != nil {
		return err
	}
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return err
	}
	h := parent.lock().Lock(ctx)
	defer h.Unlock(ctx)

	parent.mu.Lock()
	de, ok := parent.dir.tree.Get(name)
	parent.mu.Unlock()
	if !ok {
		return vfs.ErrNotExist
	}
	target := fs.getInode(de.ino)
	if target == nil {
		return vfs.ErrNotExist
	}
	// A file's header is the only one an unlink writes; a directory's parent
	// loses a link too.
	op, inos := "unlink", []*inode{target, parent}[:1]
	switch isDir := target.typNow() == typeDir; {
	case typ == typeDir && !isDir:
		return vfs.ErrNotDir
	case typ != typeDir && isDir:
		return vfs.ErrIsDir
	case isDir:
		op, inos = "rmdir", inos[:2]
		target.mu.RLock()
		empty := target.dir.tree.Len() == 0
		target.mu.RUnlock()
		if !empty {
			return vfs.ErrNotEmpty
		}
	default:
		ht := target.lock().Lock(ctx)
		defer ht.Unlock(ctx)
	}

	parent.mu.Lock()
	target.mu.Lock()
	tx := fs.begin(ctx, inos...)
	err = clearDirent(tx, de.addr)
	gone := err == nil && dropName(target, parent)
	err = tx.finish(op, err)
	target.mu.Unlock()
	if err == nil {
		parent.dir.tree.Delete(name)
		parent.dir.freeSlots = append(parent.dir.freeSlots, de.addr)
	}
	parent.mu.Unlock()
	if err == nil && gone {
		fs.destroyInode(ctx, target)
	}
	return err
}

// dropName is what losing its name does to target, in DRAM (the transaction
// that tracks them writes the headers): a directory — empty, the caller has
// checked — dies and parent loses the link of its ".."; a file loses a link
// and dies with its last. It reports whether target is now free, for the
// caller to destroy once the transaction has committed.
func dropName(target, parent *inode) bool {
	if target.typ == typeDir {
		parent.nlink--
	} else if target.nlink--; target.nlink > 0 {
		return false
	}
	target.typ = typeFree
	return true
}

// destroyInode releases an unlinked inode's storage.
func (fs *FS) destroyInode(ctx *sim.Ctx, ino *inode) {
	ino.mu.Lock()
	exts := ino.extents
	indirect := ino.indirect
	maps := ino.mappings
	ino.extents = nil
	ino.indirect = nil
	ino.mappings = nil
	ino.size = 0
	ino.mu.Unlock()
	// Unlink-under-mmap: shoot down every live translation before the
	// blocks go back to the allocator. Size is now zero, so any later
	// fault through a surviving mapping reports vfs.ErrMapFault instead
	// of resurrecting freed storage.
	for _, m := range maps {
		m.Invalidate()
	}
	for _, e := range exts {
		fs.alloc.free(ctx, alloc.Extent{Start: e.blk, Len: e.length})
	}
	fs.recs.Put(exts)
	for _, blk := range indirect {
		fs.alloc.free(ctx, alloc.Extent{Start: blk, Len: 1})
	}
	// A destroyed inode must leave the rewrite queue: the queue entry
	// would otherwise pin the dead object until the rewriter drains it
	// (the rewriter's identity check would skip it, but dropping it here
	// keeps the queue honest for RewriteQueueLen and frees the guard so a
	// reused number's new file can queue itself).
	fs.dropRewrite(ino)
	fs.delInode(ino.ino)
	fs.freeIno(ino.ino)
	// Callers still hold the inode lock at this point (their handle pins
	// the lock object); Drop means a reused inode number starts with a
	// fresh lock instead of inheriting this one's calendar.
	fs.locks.Drop(ino.ino)
}

// Rename implements vfs.FS. Both parent directories are locked in inode
// order; the whole move is one journal transaction.
func (fs *FS) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	ctx.Syscall(fs.model.SyscallNS)
	if err := fs.writable(); err != nil {
		return err
	}
	if vfs.IntoOwnSubtree(oldPath, newPath) {
		return vfs.ErrInvalid
	}
	oldParent, oldName, err := fs.resolveParent(ctx, oldPath)
	if err != nil {
		return err
	}
	newParent, newName, err := fs.resolveParent(ctx, newPath)
	if err != nil {
		return err
	}
	// Lock order by inode number to avoid deadlock.
	first, second := oldParent, newParent
	if first.ino > second.ino {
		first, second = second, first
	}
	h1 := first.lock().Lock(ctx)
	defer h1.Unlock(ctx)
	if second.ino != first.ino {
		h2 := second.lock().Lock(ctx)
		defer h2.Unlock(ctx) // runs first: released in reverse order
	}

	oldParent.mu.Lock()
	de, ok := oldParent.dir.tree.Get(oldName)
	oldParent.mu.Unlock()
	if !ok {
		return vfs.ErrNotExist
	}
	moved := fs.getInode(de.ino)
	if moved == nil {
		return vfs.ErrNotExist
	}
	if oldParent == newParent && oldName == newName {
		return nil // POSIX: renaming a file onto itself does nothing
	}
	movedDir := moved.typNow() == typeDir

	// An existing target is replaced atomically (POSIX rename), by its own
	// kind: a file replaces a file, a directory an empty directory.
	newParent.mu.Lock()
	oldDe, replacing := newParent.dir.tree.Get(newName)
	newParent.mu.Unlock()
	var victim *inode
	if replacing {
		victim = fs.getInode(oldDe.ino)
	}
	if victim != nil {
		switch victimDir := victim.typNow() == typeDir; {
		case victimDir && !movedDir:
			return vfs.ErrIsDir
		case movedDir && !victimDir:
			return vfs.ErrNotDir
		case victimDir:
			victim.mu.RLock()
			empty := victim.dir.tree.Len() == 0
			victim.mu.RUnlock()
			if !empty {
				return vfs.ErrNotEmpty
			}
		}
	}

	// The headers that change: the victim's; the new parent's when it takes
	// a dirent slot (it may grow a block) or loses a subdirectory — the
	// victim — to one it already had; and both parents' when a directory
	// moves between them: its ".." is a link of the one it sits in.
	crossDir := movedDir && oldParent != newParent
	inos := make([]*inode, 0, 3)
	if victim != nil {
		inos = append(inos, victim)
	}
	if victim == nil || movedDir && !crossDir {
		inos = append(inos, newParent)
	}
	if crossDir {
		inos = append(inos, oldParent)
	}

	first.mu.Lock()
	if second != first {
		second.mu.Lock()
	}
	if victim != nil {
		victim.mu.Lock()
	}
	tx := fs.begin(ctx, inos...)
	newAddr := oldDe.addr // replacing: the victim's dirent slot, pointed at the moved inode
	err = clearDirent(tx, de.addr)
	if err == nil && !replacing {
		newAddr, err = fs.direntSlot(ctx, tx, newParent)
	}
	if err == nil {
		err = writeDirent(tx, newAddr, moved.ino, newName)
	}
	if err == nil {
		if victim != nil {
			dropName(victim, newParent)
		}
		if crossDir {
			oldParent.nlink--
			newParent.nlink++
		}
	}
	if err = tx.finish("rename", err); err == nil {
		oldParent.dir.tree.Delete(oldName)
		oldParent.dir.freeSlots = append(oldParent.dir.freeSlots, de.addr)
		newParent.dir.tree.Set(newName, dentry{ino: moved.ino, addr: newAddr})
	}
	if victim != nil {
		victim.mu.Unlock()
	}
	if second != first {
		second.mu.Unlock()
	}
	first.mu.Unlock()
	if err == nil && victim != nil {
		fs.destroyInode(ctx, victim)
	}
	return err
}

// Stat implements vfs.FS.
func (fs *FS) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	ctx.Syscall(fs.model.SyscallNS)
	ino, err := fs.resolve(ctx, path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	h := ino.lock().RLock(ctx)
	defer h.Unlock(ctx)
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return vfs.FileInfo{
		Ino:   ino.ino,
		Size:  ino.size,
		IsDir: ino.typ == typeDir,
		Nlink: int(ino.nlink),
	}, nil
}

// ReadDir implements vfs.FS.
func (fs *FS) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	ctx.Syscall(fs.model.SyscallNS)
	dir, err := fs.resolve(ctx, path)
	if err != nil {
		return nil, err
	}
	if dir.typNow() != typeDir {
		return nil, vfs.ErrNotDir
	}
	h := dir.lock().RLock(ctx)
	defer h.Unlock(ctx)
	dir.mu.RLock()
	defer dir.mu.RUnlock()
	var out []vfs.DirEntry
	dir.dir.tree.Ascend(func(name string, de dentry) bool {
		ctx.Advance(dirLookupCost)
		child := fs.getInode(de.ino)
		isDir := child != nil && child.typ == typeDir
		out = append(out, vfs.DirEntry{Name: name, Ino: de.ino, IsDir: isDir})
		return true
	})
	return out, nil
}

// StatFS implements vfs.FS.
func (fs *FS) StatFS(ctx *sim.Ctx) vfs.StatFS {
	freeBlocks, alignedExtents := fs.alloc.stats()
	files := int64(fs.inodeCount())
	return vfs.StatFS{
		TotalBlocks:   fs.g.poolBlocks * int64(fs.g.cpus),
		FreeBlocks:    freeBlocks,
		FreeAligned2M: alignedExtents,
		Files:         files,
	}
}

// FreeExtents implements vfs.FS.
func (fs *FS) FreeExtents() []alloc.Extent { return fs.alloc.freeExtents() }

// AddressSpace exposes the FS's process address space for experiments that
// need direct TLB/LLC control.
func (fs *FS) AddressSpace() *mmu.AddressSpace { return fs.as }

// Device exposes the backing device (read-only use: replication,
// divergence checking, offline tooling). The journal stores undo records
// (old contents), so a replica cannot be built from journal entries: it
// applies the device's own store stream (pmem.Observer), and a promoted
// replica recovers through Mount exactly as a crashed primary would.
func (fs *FS) Device() *pmem.Device { return fs.dev }
