package winefs

import (
	"slices"
	"sync"
)

// The DRAM inode map is sharded by owning per-CPU inode table: inode
// numbers are dense per CPU group (layout.go inoFor/cpuOfIno), so keying
// shards by cpuOfIno gives namespace traffic on different CPU groups its
// own map lock — the same reasoning that gives each group its own journal
// and allocator. A single global map lock was the last global
// serialisation point on the namespace hot path.
type inodeShard struct {
	mu sync.RWMutex
	m  map[uint64]*inode
}

func newShards(cpus int) []*inodeShard {
	shards := make([]*inodeShard, cpus)
	for i := range shards {
		shards[i] = &inodeShard{m: make(map[uint64]*inode)}
	}
	return shards
}

func (fs *FS) shardOf(ino uint64) *inodeShard {
	return fs.shards[fs.g.cpuOfIno(ino)]
}

func (fs *FS) getInode(ino uint64) *inode {
	sh := fs.shardOf(ino)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[ino]
}

// putInode publishes a built inode and gives it the handle every open of
// it returns.
func (fs *FS) putInode(ino *inode) {
	ino.file = File{fs: fs, ino: ino}
	sh := fs.shardOf(ino.ino)
	sh.mu.Lock()
	sh.m[ino.ino] = ino
	sh.mu.Unlock()
}

func (fs *FS) delInode(ino uint64) {
	sh := fs.shardOf(ino)
	sh.mu.Lock()
	delete(sh.m, ino)
	sh.mu.Unlock()
}

// snapshotInodes returns a coherent snapshot of every live inode: all
// shard locks are held simultaneously (acquired in index order, so this
// cannot deadlock against another snapshot), preventing a concurrent
// create-on-shard-A/delete-on-shard-B from appearing half-applied. Audit's
// tiling phase and the unmount serialisation depend on this — a torn
// snapshot reads as a block leak.
func (fs *FS) snapshotInodes() []*inode {
	return fs.snapshotInodesInto(nil)
}

// snapshotInodesInto is snapshotInodes reusing buf's storage: the
// maintenance passes keep one slice from pass to pass (maintScratch).
func (fs *FS) snapshotInodesInto(buf []*inode) []*inode {
	for _, sh := range fs.shards {
		sh.mu.RLock()
	}
	var n int
	for _, sh := range fs.shards {
		n += len(sh.m)
	}
	out := slices.Grow(buf[:0], n)
	for _, sh := range fs.shards {
		for _, ino := range sh.m {
			out = append(out, ino)
		}
	}
	for i := len(fs.shards) - 1; i >= 0; i-- {
		fs.shards[i].mu.RUnlock()
	}
	return out
}

// emptied clears s, so it keeps nothing reachable, and returns it at
// length 0 with its storage, for the next pass to refill.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// inodeCount reports the number of live inodes, coherently across shards.
func (fs *FS) inodeCount() int {
	for _, sh := range fs.shards {
		sh.mu.RLock()
	}
	var n int
	for _, sh := range fs.shards {
		n += len(sh.m)
	}
	for i := len(fs.shards) - 1; i >= 0; i-- {
		fs.shards[i].mu.RUnlock()
	}
	return n
}
