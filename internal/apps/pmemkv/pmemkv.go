// Package pmemkv implements a PmemKV-style key-value store (§5.4): a
// concurrent-map ("cmap") engine over a pool of memory-mapped files. The
// store "creates a PM pool using fallocate(), and keeps extending the pool
// as it gets used up by creating more files and allocating them via
// fallocate()" — each pool segment is a 128MiB file, preallocated, with
// values written through the mapping. How expensive the resulting page
// faults are depends entirely on the file system's fallocate/fault split
// (zero-at-fallocate vs zero-at-fault), which is what Figure 7(c) and
// Table 2 measure.
package pmemkv

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// SegmentSize is the default pool segment file size (128MiB, as in the
// paper).
const SegmentSize = 128 << 20

// DB is an open PmemKV-style store.
type DB struct {
	fs      vfs.FS
	dir     string
	segSize int64

	mu       sync.Mutex
	segments []*segment
	index    map[uint64]ref // cmap: key → location
	shardsMu []sync.Mutex   // models cmap shard locking
}

type segment struct {
	file vfs.File
	m    *mmu.Mapping
	used int64
}

type ref struct {
	seg int
	off int64
	len int32
}

// Open creates a store rooted at dir with the paper's 128MiB segments.
func Open(ctx *sim.Ctx, fs vfs.FS, dir string) (*DB, error) {
	return OpenSized(ctx, fs, dir, SegmentSize)
}

// OpenSized creates a store with a custom pool segment size (scaled-down
// experiment configurations).
func OpenSized(ctx *sim.Ctx, fs vfs.FS, dir string, segSize int64) (*DB, error) {
	if err := fs.Mkdir(ctx, dir); err != nil && err != vfs.ErrExist {
		return nil, err
	}
	if segSize <= 0 {
		segSize = SegmentSize
	}
	db := &DB{fs: fs, dir: dir, segSize: segSize,
		index: make(map[uint64]ref), shardsMu: make([]sync.Mutex, 64)}
	if err := db.grow(ctx); err != nil {
		return nil, err
	}
	return db, nil
}

// grow adds one preallocated 128MiB pool segment.
func (db *DB) grow(ctx *sim.Ctx) error {
	name := fmt.Sprintf("%s/pool%04d", db.dir, len(db.segments))
	f, err := db.fs.Create(ctx, name)
	if err != nil {
		return err
	}
	if err := f.Fallocate(ctx, 0, db.segSize); err != nil {
		return err
	}
	// File.Mmap, not vmm.Map: the segment stays mapped for the file's life,
	// and a vmm mapping would add msync work that moves Figure 7.
	m, err := f.Mmap(ctx, db.segSize)
	if err != nil {
		return err
	}
	db.segments = append(db.segments, &segment{file: f, m: m})
	return nil
}

// Put stores key → val.
func (db *DB) Put(ctx *sim.Ctx, key uint64, val []byte) error {
	need := int64(len(val)) + 16
	db.mu.Lock()
	seg := db.segments[len(db.segments)-1]
	if seg.used+need > db.segSize {
		if err := db.grow(ctx); err != nil {
			db.mu.Unlock()
			return err
		}
		seg = db.segments[len(db.segments)-1]
	}
	off := seg.used
	seg.used += need
	segIdx := len(db.segments) - 1
	db.mu.Unlock()

	// Shard lock (cmap concurrency).
	sh := &db.shardsMu[key%64]
	sh.Lock()
	defer sh.Unlock()

	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], key)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(val)))
	if err := seg.m.Write(ctx, hdr[:], off); err != nil {
		return err
	}
	if err := seg.m.Write(ctx, val, off+16); err != nil {
		return err
	}
	db.mu.Lock()
	db.index[key] = ref{seg: segIdx, off: off + 16, len: int32(len(val))}
	db.mu.Unlock()
	return nil
}

// Get reads key's value into buf.
func (db *DB) Get(ctx *sim.Ctx, key uint64, buf []byte) (int, error) {
	db.mu.Lock()
	r, ok := db.index[key]
	db.mu.Unlock()
	if !ok {
		return 0, vfs.ErrNotExist
	}
	n := int(r.len)
	if n > len(buf) {
		n = len(buf)
	}
	if err := db.segments[r.seg].m.Read(ctx, buf[:n], r.off); err != nil {
		return 0, err
	}
	return n, nil
}

// Segments reports the pool segment count (growth behaviour tests).
func (db *DB) Segments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.segments)
}
