// Package lmdb implements a simplified LMDB-style memory-mapped B+tree
// database, reproducing the access pattern the paper evaluates (§5.4):
//
//   - a single data file memory-mapped up front for the whole map size;
//   - on-demand space allocation: the file is grown with ftruncate (not
//     fallocate), so every first touch of a page takes a page fault and
//     the file system allocates at fault time — "LMDB does on-demand
//     allocations and zero-outs pages on page faults by using ftruncate()
//     instead of fallocate() ... this reduces space-amplification, but
//     leads to costly page faults";
//   - copy-on-write pages: each committed batch writes new versions of the
//     touched pages and a new meta page.
//
// The tree maps uint64 keys to byte values. Interior structure follows
// LMDB loosely (fixed 4KiB pages, CoW appends, two meta pages) — enough
// for the page-touch pattern to match; it is not a full MVCC engine.
package lmdb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

const (
	// PageSize is LMDB's page size.
	PageSize = 4096
	// leafCap is how many (key, valRef) slots fit a leaf page.
	leafCap = (PageSize - 16) / 24
	// branchCap is how many (key, child) slots fit a branch page.
	branchCap = (PageSize - 16) / 16
)

// ErrFull is returned when the map size is exhausted.
var ErrFull = errors.New("lmdb: map full")

// DB is an open database.
type DB struct {
	fs   vfs.FS
	file vfs.File
	m    *vmm.Mapping

	mapSize  int64
	nextPage int64 // bump page allocator (CoW append)
	// valTail packs values: byte offset within the value area's last page.
	valPage int64
	valOff  int64
	// txnPages are pages allocated during the current batch transaction:
	// LMDB rewrites a dirty page once per transaction, so nodes CoW'd
	// earlier in the same batch are updated in place.
	txnPages map[int64]bool
	// dirty caches the decoded nodes touched by the current transaction;
	// they are serialised to the mapping once, at commit.
	dirty map[int64]*node

	// DRAM page cache of the tree topology (page id → decoded node); the
	// authoritative bytes live in the mapping. LMDB similarly relies on
	// the OS page cache being the mapping itself.
	root  int64
	depth int
}

// Options configure Open.
type Options struct {
	// MapSize is the mmap reservation (file grows on demand under it).
	MapSize int64
	// Path of the database file.
	Path string
}

// Open creates (or truncates) a database on fs.
func Open(ctx *sim.Ctx, fs vfs.FS, opts Options) (*DB, error) {
	if opts.MapSize <= 0 {
		opts.MapSize = 64 << 20
	}
	if opts.Path == "" {
		opts.Path = "/data.mdb"
	}
	f, err := fs.Create(ctx, opts.Path)
	if err != nil {
		return nil, err
	}
	// LMDB sizes the file with ftruncate: sparse, no allocation yet.
	if err := f.Truncate(ctx, opts.MapSize); err != nil {
		return nil, err
	}
	// One shared full-file mapping, LMDB WRITEMAP-style: stores land in
	// the map directly and the meta page is msync'd at commit.
	m, err := vmm.Map(ctx, f, opts.MapSize, vmm.Config{
		Mode:        vmm.ModeShared,
		Sync:        vmm.SyncLazy,
		MapFullFile: true,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{fs: fs, file: f, m: m, mapSize: opts.MapSize, nextPage: 2, root: -1,
		valPage: -1, txnPages: map[int64]bool{}, dirty: map[int64]*node{}}
	// Two meta pages at the front, LMDB-style.
	if err := db.writeMeta(ctx, 0); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) writeMeta(ctx *sim.Ctx, txnID uint64) error {
	var meta [32]byte
	binary.LittleEndian.PutUint64(meta[0:], 0xBEEFC0DE)
	binary.LittleEndian.PutUint64(meta[8:], txnID)
	binary.LittleEndian.PutUint64(meta[16:], uint64(db.root))
	binary.LittleEndian.PutUint64(meta[24:], uint64(db.nextPage))
	// Alternate between the two meta pages like LMDB, and msync the one
	// just written: the commit is durable when the meta page is.
	metaOff := int64(txnID%2) * PageSize
	if err := db.m.Write(ctx, meta[:], metaOff); err != nil {
		return err
	}
	return db.m.Msync(ctx, metaOff, PageSize)
}

// allocPage bumps the CoW frontier.
func (db *DB) allocPage() (int64, error) {
	if (db.nextPage+1)*PageSize > db.mapSize {
		return 0, ErrFull
	}
	p := db.nextPage
	db.nextPage++
	return p, nil
}

// page layout (leaf):   [kind u8|pad|count u16|pad4|...] then count slots of
// (key u64, valPage u64, valLen u32, pad u32).
// page layout (branch): header then count slots of (key u64, child u64).

type node struct {
	page int64
	leaf bool
	keys []uint64
	vals [][2]int64 // leaf: (byte offset, length) of the value
	kids []int64    // branch children
}

func (db *DB) readNode(ctx *sim.Ctx, page int64) (*node, error) {
	if n, ok := db.dirty[page]; ok {
		return n, nil
	}
	var hdr [8]byte
	if err := db.m.Read(ctx, hdr[:], page*PageSize); err != nil {
		return nil, err
	}
	leaf := hdr[0] == 1
	count := int(binary.LittleEndian.Uint16(hdr[2:]))
	n := &node{page: page, leaf: leaf}
	if leaf {
		buf := make([]byte, count*24)
		if err := db.m.Read(ctx, buf, page*PageSize+16); err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			o := i * 24
			n.keys = append(n.keys, binary.LittleEndian.Uint64(buf[o:]))
			off := int64(binary.LittleEndian.Uint64(buf[o+8:]))
			l := int64(binary.LittleEndian.Uint32(buf[o+16:]))
			n.vals = append(n.vals, [2]int64{off, l})
		}
	} else {
		buf := make([]byte, count*16)
		if err := db.m.Read(ctx, buf, page*PageSize+16); err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			o := i * 16
			n.keys = append(n.keys, binary.LittleEndian.Uint64(buf[o:]))
			n.kids = append(n.kids, int64(binary.LittleEndian.Uint64(buf[o+8:])))
		}
	}
	return n, nil
}

func (db *DB) writeNode(ctx *sim.Ctx, n *node) error {
	var buf []byte
	var hdr [16]byte
	if n.leaf {
		hdr[0] = 1
	}
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(n.keys)))
	buf = append(buf, hdr[:]...)
	if n.leaf {
		for i, k := range n.keys {
			var s [24]byte
			binary.LittleEndian.PutUint64(s[0:], k)
			binary.LittleEndian.PutUint64(s[8:], uint64(n.vals[i][0]))
			binary.LittleEndian.PutUint32(s[16:], uint32(n.vals[i][1]))
			buf = append(buf, s[:]...)
		}
	} else {
		for i, k := range n.keys {
			var s [16]byte
			binary.LittleEndian.PutUint64(s[0:], k)
			binary.LittleEndian.PutUint64(s[8:], uint64(n.kids[i]))
			buf = append(buf, s[:]...)
		}
	}
	return db.m.Write(ctx, buf, n.page*PageSize)
}

// writeValue appends a value to the packed value area, starting a fresh
// page run when the current one is exhausted (LMDB packs overflow values
// contiguously rather than burning a page per value).
func (db *DB) writeValue(ctx *sim.Ctx, val []byte) (int64, error) {
	need := int64(len(val))
	if db.valPage < 0 || db.valOff+need > PageSize {
		pages := (need + PageSize - 1) / PageSize
		first, err := db.allocPage()
		if err != nil {
			return 0, err
		}
		for i := int64(1); i < pages; i++ {
			if _, err := db.allocPage(); err != nil {
				return 0, err
			}
		}
		db.valPage = first
		db.valOff = 0
	}
	off := db.valPage*PageSize + db.valOff
	db.valOff += need
	if db.valOff >= PageSize {
		db.valPage = -1 // multi-page value: next value starts fresh
	}
	if err := db.m.Write(ctx, val, off); err != nil {
		return 0, err
	}
	return off, nil
}

// Put inserts or replaces key. Pages on the root-to-leaf path are
// rewritten copy-on-write, as LMDB does per committed transaction. Batched
// workloads amortise this by calling PutBatch.
func (db *DB) Put(ctx *sim.Ctx, key uint64, val []byte) error {
	return db.PutBatch(ctx, []uint64{key}, [][]byte{val})
}

// PutBatch inserts a batch in one transaction: values are written, leaves
// updated CoW once per touched leaf, and a meta page committed at the end
// (the fillseqbatch pattern, LMDB's best case).
func (db *DB) PutBatch(ctx *sim.Ctx, keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("lmdb: batch length mismatch")
	}
	// A batch is one transaction: pages dirtied earlier in the batch are
	// rewritten in place rather than CoW'd again, and every dirty node is
	// serialised to the mapping exactly once, at commit.
	db.txnPages = map[int64]bool{}
	db.dirty = map[int64]*node{}
	for i, k := range keys {
		off, err := db.writeValue(ctx, vals[i])
		if err != nil {
			return err
		}
		if err := db.insertRef(ctx, k, off, int64(len(vals[i]))); err != nil {
			return err
		}
	}
	for _, n := range db.dirty {
		if err := db.writeNode(ctx, n); err != nil {
			return err
		}
	}
	db.dirty = map[int64]*node{}
	return db.writeMeta(ctx, uint64(db.nextPage))
}

// insertRef places (key → value ref) into the tree with CoW path rewrite.
func (db *DB) insertRef(ctx *sim.Ctx, key uint64, valOff, valLen int64) error {
	if db.root < 0 {
		p, err := db.allocPage()
		if err != nil {
			return err
		}
		root := &node{page: p, leaf: true, keys: []uint64{key}, vals: [][2]int64{{valOff, valLen}}}
		db.root = p
		db.txnPages[p] = true
		db.depth = 1
		db.dirty[p] = root
		return nil
	}
	// Walk to the leaf, remembering the path.
	var path []*node
	cur := db.root
	for {
		n, err := db.readNode(ctx, cur)
		if err != nil {
			return err
		}
		path = append(path, n)
		if n.leaf {
			break
		}
		// Child with the greatest key <= key (first child as fallback).
		idx := 0
		for i, k := range n.keys {
			if k <= key {
				idx = i
			} else {
				break
			}
		}
		cur = n.kids[idx]
	}
	leaf := path[len(path)-1]
	// Insert into the leaf (sorted).
	pos := 0
	for pos < len(leaf.keys) && leaf.keys[pos] < key {
		pos++
	}
	if pos < len(leaf.keys) && leaf.keys[pos] == key {
		leaf.vals[pos] = [2]int64{valOff, valLen}
	} else {
		leaf.keys = append(leaf.keys, 0)
		copy(leaf.keys[pos+1:], leaf.keys[pos:])
		leaf.keys[pos] = key
		leaf.vals = append(leaf.vals, [2]int64{})
		copy(leaf.vals[pos+1:], leaf.vals[pos:])
		leaf.vals[pos] = [2]int64{valOff, valLen}
	}
	// CoW: the path gets new pages — except pages this transaction already
	// owns, which are simply rewritten (one CoW per page per txn).
	var split *node
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		oldPage := n.page
		if !db.txnPages[n.page] {
			np, err := db.allocPage()
			if err != nil {
				return err
			}
			delete(db.dirty, n.page)
			n.page = np
			db.txnPages[np] = true
		}
		db.dirty[n.page] = n
		if split != nil {
			// Insert the split sibling into this branch.
			sp := 0
			for sp < len(n.keys) && n.keys[sp] < split.keys[0] {
				sp++
			}
			n.keys = append(n.keys, 0)
			copy(n.keys[sp+1:], n.keys[sp:])
			n.keys[sp] = split.keys[0]
			n.kids = append(n.kids, 0)
			copy(n.kids[sp+1:], n.kids[sp:])
			n.kids[sp] = split.page
			split = nil
		}
		capSlots := leafCap
		if !n.leaf {
			capSlots = branchCap
		}
		if len(n.keys) > capSlots {
			// Split: right half to a sibling page.
			half := len(n.keys) / 2
			sib := &node{leaf: n.leaf}
			sibPage, err := db.allocPage()
			if err != nil {
				return err
			}
			sib.page = sibPage
			db.txnPages[sibPage] = true
			sib.keys = append(sib.keys, n.keys[half:]...)
			n.keys = n.keys[:half]
			if n.leaf {
				sib.vals = append(sib.vals, n.vals[half:]...)
				n.vals = n.vals[:half]
			} else {
				sib.kids = append(sib.kids, n.kids[half:]...)
				n.kids = n.kids[:half]
			}
			db.dirty[sib.page] = sib
			split = sib
		}
		// Fix the parent's child pointer (it will be rewritten next loop).
		if i > 0 {
			parent := path[i-1]
			for j, kid := range parent.kids {
				if kid == oldPage {
					parent.kids[j] = n.page
				}
			}
		} else {
			db.root = n.page
		}
	}
	if split != nil {
		// Root split: new root.
		rp, err := db.allocPage()
		if err != nil {
			return err
		}
		oldRoot := path[0]
		db.txnPages[rp] = true
		root := &node{page: rp, keys: []uint64{oldRoot.keys[0], split.keys[0]},
			kids: []int64{oldRoot.page, split.page}}
		db.dirty[rp] = root
		db.root = rp
		db.depth++
	}
	return nil
}

// Get reads key's value into buf, returning the value length.
func (db *DB) Get(ctx *sim.Ctx, key uint64, buf []byte) (int, error) {
	if db.root < 0 {
		return 0, vfs.ErrNotExist
	}
	cur := db.root
	for {
		n, err := db.readNode(ctx, cur)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			for i, k := range n.keys {
				if k == key {
					l := n.vals[i][1]
					if l > int64(len(buf)) {
						l = int64(len(buf))
					}
					if err := db.m.Read(ctx, buf[:l], n.vals[i][0]); err != nil {
						return 0, err
					}
					return int(l), nil
				}
			}
			return 0, vfs.ErrNotExist
		}
		idx := 0
		for i, k := range n.keys {
			if k <= key {
				idx = i
			} else {
				break
			}
		}
		cur = n.kids[idx]
	}
}
