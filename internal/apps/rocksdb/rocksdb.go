// Package rocksdb implements a compact LSM-tree key-value store in the
// style of RocksDB configured for PM as the paper evaluates it (§5.4):
// memory-mapped reads and writes (mmap_reads/mmap_writes), a write-ahead
// log, an in-memory memtable flushed to sorted, memory-mapped table files,
// and level compaction. Every table file is created with fallocate and
// accessed exclusively through its mapping, so lookups and compactions
// exercise the page-fault and TLB behaviour Figure 7(a) and Table 2
// measure under YCSB.
package rocksdb

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Options tune the store.
type Options struct {
	Dir string
	// MemtableBytes is the flush threshold (default 4MiB).
	MemtableBytes int64
}

// maxTables is the level-0 table count past which a flush compacts.
const maxTables = 6

// DB is an open store.
type DB struct {
	fs   vfs.FS
	opts Options

	wal     vfs.File
	walSize int64

	mem      map[uint64][]byte
	memBytes int64

	tables []*table // newest first
	nextID int
}

type table struct {
	name  string
	file  vfs.File
	m     *mmu.Mapping
	keys  []uint64 // sorted
	offs  []int64
	lens  []int32
	bytes int64
}

// Open creates a fresh store.
func Open(ctx *sim.Ctx, fs vfs.FS, opts Options) (*DB, error) {
	if opts.Dir == "" {
		opts.Dir = "/rocksdb"
	}
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 4 << 20
	}
	if err := fs.Mkdir(ctx, opts.Dir); err != nil && err != vfs.ErrExist {
		return nil, err
	}
	wal, err := fs.Create(ctx, opts.Dir+"/wal")
	if err != nil {
		return nil, err
	}
	return &DB{fs: fs, opts: opts, wal: wal, mem: make(map[uint64][]byte)}, nil
}

// Put inserts key → val: WAL append, memtable insert, flush when full.
func (db *DB) Put(ctx *sim.Ctx, key uint64, val []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], key)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(val)))
	if _, err := db.wal.Append(ctx, hdr[:]); err != nil {
		return err
	}
	if _, err := db.wal.Append(ctx, val); err != nil {
		return err
	}
	db.walSize += int64(len(val)) + 12
	cp := make([]byte, len(val))
	copy(cp, val)
	db.mem[key] = cp
	db.memBytes += int64(len(val)) + 16
	if db.memBytes >= db.opts.MemtableBytes {
		return db.flush(ctx)
	}
	return nil
}

// Get looks key up: memtable first, then tables newest-to-oldest with
// binary search over the mapped index.
func (db *DB) Get(ctx *sim.Ctx, key uint64, buf []byte) (int, error) {
	if v, ok := db.mem[key]; ok {
		n := copy(buf, v)
		return n, nil
	}
	for _, t := range db.tables {
		i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
		if i < len(t.keys) && t.keys[i] == key {
			n := int(t.lens[i])
			if n > len(buf) {
				n = len(buf)
			}
			if err := t.m.Read(ctx, buf[:n], t.offs[i]); err != nil {
				return 0, err
			}
			return n, nil
		}
	}
	return 0, vfs.ErrNotExist
}

// flush writes the memtable to a new sorted table file via its mapping.
func (db *DB) flush(ctx *sim.Ctx) error {
	if len(db.mem) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(db.mem))
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var size int64
	for _, k := range keys {
		size += int64(len(db.mem[k])) + 16
	}
	size = (size + mmu.HugePage - 1) / mmu.HugePage * mmu.HugePage

	name := fmt.Sprintf("%s/table%06d", db.opts.Dir, db.nextID)
	db.nextID++
	f, err := db.fs.Create(ctx, name)
	if err != nil {
		return err
	}
	// Tables are preallocated (large request → aligned extents on a
	// hugepage-aware FS) and written through the mapping.
	if err := f.Fallocate(ctx, 0, size); err != nil {
		return err
	}
	// File.Mmap, not vmm.Map: a table stays mapped until it is deleted,
	// and a vmm mapping would add msync work that moves Figure 7.
	m, err := f.Mmap(ctx, size)
	if err != nil {
		return err
	}
	t := &table{name: name, file: f, m: m, bytes: size}
	var off int64
	for _, k := range keys {
		v := db.mem[k]
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:], k)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(v)))
		if err := m.Write(ctx, hdr[:], off); err != nil {
			return err
		}
		if err := m.Write(ctx, v, off+16); err != nil {
			return err
		}
		t.keys = append(t.keys, k)
		t.offs = append(t.offs, off+16)
		t.lens = append(t.lens, int32(len(v)))
		off += int64(len(v)) + 16
	}
	db.tables = append([]*table{t}, db.tables...)
	db.mem = make(map[uint64][]byte)
	db.memBytes = 0
	// Truncate the WAL (its entries are now in a durable table).
	if err := db.wal.Truncate(ctx, 0); err != nil {
		return err
	}
	db.walSize = 0
	if len(db.tables) > maxTables {
		return db.compact(ctx)
	}
	return nil
}

// compact merges all tables into one, reading through the old mappings and
// writing through the new one, then deletes the old files.
func (db *DB) compact(ctx *sim.Ctx) error {
	merged := make(map[uint64]ref)
	for gen, t := range db.tables { // newest first: keep first occurrence
		for i, k := range t.keys {
			if _, ok := merged[k]; !ok {
				merged[k] = ref{gen, i}
			}
		}
	}
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var size int64
	for _, k := range keys {
		size += int64(db.tables[merged[k].gen].lens[merged[k].idx]) + 16
	}
	size = (size + mmu.HugePage - 1) / mmu.HugePage * mmu.HugePage
	name := fmt.Sprintf("%s/table%06d", db.opts.Dir, db.nextID)
	db.nextID++
	f, err := db.fs.Create(ctx, name)
	if err != nil {
		return err
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		return err
	}
	// File.Mmap, not vmm.Map: a table stays mapped until it is deleted,
	// and a vmm mapping would add msync work that moves Figure 7.
	m, err := f.Mmap(ctx, size)
	if err != nil {
		return err
	}
	nt := &table{name: name, file: f, m: m, bytes: size}
	var off int64
	buf := make([]byte, 64<<10)
	for _, k := range keys {
		r := merged[k]
		ot := db.tables[r.gen]
		l := int(ot.lens[r.idx])
		if l > len(buf) {
			buf = make([]byte, l)
		}
		if err := ot.m.Read(ctx, buf[:l], ot.offs[r.idx]); err != nil {
			return err
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:], k)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(l))
		if err := m.Write(ctx, hdr[:], off); err != nil {
			return err
		}
		if err := m.Write(ctx, buf[:l], off+16); err != nil {
			return err
		}
		nt.keys = append(nt.keys, k)
		nt.offs = append(nt.offs, off+16)
		nt.lens = append(nt.lens, int32(l))
		off += int64(l) + 16
	}
	// Delete the old table files.
	old := db.tables
	db.tables = []*table{nt}
	for _, ot := range old {
		if err := db.fs.Unlink(ctx, ot.name); err != nil {
			return err
		}
	}
	return nil
}

type ref struct{ gen, idx int }
