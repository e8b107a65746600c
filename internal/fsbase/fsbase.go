// Package fsbase provides the shared machinery for the six baseline file
// systems the paper compares WineFS against (ext4-DAX, xfs-DAX, PMFS,
// NOVA, SplitFS, Strata).
//
// The baselines matter to the reproduction through four policy axes, which
// Hooks captures:
//
//   - allocation policy (contiguity-first vs alignment-aware vs per-CPU);
//   - metadata consistency mechanism and its concurrency (global JBD2
//     batch, single fine-grained journal, per-inode logs);
//   - data-path behaviour on overwrites and unaligned appends (in-place vs
//     copy-on-write vs log + digestion);
//   - fault-time behaviour (zero-on-fault vs zero-on-allocate).
//
// Everything else — namespace, extent maps, sparse files, mmap fault
// resolution with the structural hugepage test — is shared here. Baselines
// keep their metadata in DRAM only (they are not crash-tested; WineFS, the
// system under study, has a fully persistent implementation in
// internal/winefs).
package fsbase

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/rbtree"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// BlockSize aliases the common block size.
const BlockSize = alloc.BlockSize

// AllocHint carries context into an allocation policy decision.
type AllocHint struct {
	// Node is the file being extended (nil for internal allocations).
	Node *Node
	// FileBlk is the logical block the new space will back.
	FileBlk int64
	// Goal is the physical block just past the file's previous extent
	// (contiguity goal), or -1 when there is none.
	Goal int64
	// Large indicates a hugepage-sized-or-bigger request.
	Large bool
}

// OverwriteAction is a policy's answer for how to update existing bytes.
type OverwriteAction int

const (
	// InPlace overwrites directly (metadata-consistency file systems).
	InPlace OverwriteAction = iota
	// CoW redirects the affected blocks to freshly allocated space,
	// copying untouched old bytes (NOVA, Strata).
	CoW
)

// Hooks parameterises a baseline file system.
type Hooks interface {
	Name() string
	Mode() vfs.ConsistencyMode

	// Alloc obtains blocks for a file range; Free returns them.
	Alloc(ctx *sim.Ctx, blocks int64, hint AllocHint) ([]alloc.Extent, error)
	Free(ctx *sim.Ctx, ex []alloc.Extent)
	FreeExtents() []alloc.Extent
	FreeBlocks() int64
	TotalBlocks() int64

	// MetaOp charges the cost of making a metadata operation of roughly
	// `entries` 64-byte records consistent, on behalf of node n (may be
	// nil for namespace-level ops). kind distinguishes namespace changes
	// from data-path metadata (size/extent updates): SplitFS stages the
	// latter in user space until fsync.
	MetaOp(ctx *sim.Ctx, n *Node, entries int, kind MetaKind)
	// DirLookup charges one directory-resolution step in a directory
	// currently holding `entries` entries (PMFS scans linearly; the others
	// index in DRAM).
	DirLookup(ctx *sim.Ctx, entries int)
	// Overwrite decides how to update blocks that contain existing data.
	Overwrite(ctx *sim.Ctx, n *Node, off, length int64) OverwriteAction
	// DataWrite charges any policy-specific extra cost per written byte
	// (Strata's log+digest double copy, SplitFS's staging).
	DataWrite(ctx *sim.Ctx, n *Node, length int64)
	// Fsync charges the durability cost of an fsync of n (ext4/xfs:
	// stop-the-world journal commit; others: cheap). File data needs no
	// flush here: it went out as non-temporal copies (pmem.WriteNT).
	Fsync(ctx *sim.Ctx, n *Node)
	// ZeroOnFault selects ext4-style deferred zeroing of fallocated space.
	ZeroOnFault() bool
	// OnCreate/OnDelete run per-inode side effects (NOVA allocates the
	// per-inode log here — the fragmentation driver §2.6 calls out).
	OnCreate(ctx *sim.Ctx, n *Node)
	OnDelete(ctx *sim.Ctx, n *Node)
}

// Ext is one file extent. Unwritten marks fallocated-but-unzeroed space
// (ext4 semantics: zeroing happens at fault/write time).
type Ext struct {
	FileBlk   int64
	Blk       int64
	Len       int64
	Unwritten bool
}

// Node is a file or directory.
type Node struct {
	Ino   uint64
	IsDir bool

	mu      sync.RWMutex
	size    int64
	extents []Ext // sorted by FileBlk
	nlink   int

	children *rbtree.Tree[string, *Node] // directories

	// mappings are the live memory mappings over this node; layout
	// changes (truncate, delete) shoot their translations down before
	// freed blocks can be reused.
	mappings []*mmu.Mapping

	// LogBlocks is per-inode log space (NOVA); tracked so deletes free it
	// and fragmentation analyses see it.
	LogBlocks []alloc.Extent
	// LogEntries counts live log records (drives NOVA GC).
	LogEntries int64
}

// Size returns the node's current size.
func (n *Node) Size() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.size
}

// ExtentCount returns the number of extents (fragmentation gauge).
func (n *Node) ExtentCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.extents)
}

// FS is a mounted baseline file system.
type FS struct {
	hooks Hooks
	dev   *pmem.Device
	as    *mmu.AddressSpace
	model *pmem.CostModel
	locks *vfs.LockTable

	mu      sync.RWMutex
	root    *Node
	nodes   map[uint64]*Node
	nextIno uint64
	files   int64
}

// New builds a baseline FS over dev with the given policy hooks.
func New(dev *pmem.Device, hooks Hooks) *FS {
	fs := &FS{
		hooks:   hooks,
		dev:     dev,
		as:      mmu.NewAddressSpace(dev),
		model:   dev.Model(),
		locks:   vfs.NewLockTable(),
		nodes:   make(map[uint64]*Node),
		nextIno: 1,
	}
	fs.root = fs.newNode(true)
	return fs
}

func (fs *FS) newNode(isDir bool) *Node {
	fs.mu.Lock()
	ino := fs.nextIno
	fs.nextIno++
	n := &Node{Ino: ino, IsDir: isDir, nlink: 1}
	if isDir {
		n.nlink = 2
		n.children = rbtree.New[string, *Node](func(a, b string) bool { return a < b })
	}
	fs.nodes[ino] = n
	fs.mu.Unlock()
	return n
}

// Device returns the underlying device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// AddressSpace returns the FS's process address space.
func (fs *FS) AddressSpace() *mmu.AddressSpace { return fs.as }

// Hooks exposes the policy object (tests).
func (fs *FS) Hooks() Hooks { return fs.hooks }

// Name implements vfs.FS.
func (fs *FS) Name() string { return fs.hooks.Name() }

// Mode implements vfs.FS.
func (fs *FS) Mode() vfs.ConsistencyMode { return fs.hooks.Mode() }

// resolve walks a path, charging the policy's per-step lookup cost.
func (fs *FS) resolve(ctx *sim.Ctx, path string) (*Node, error) {
	cur := fs.root
	for _, comp := range vfs.Components(path) {
		cur.mu.RLock()
		if !cur.IsDir {
			cur.mu.RUnlock()
			return nil, vfs.ErrNotDir
		}
		fs.hooks.DirLookup(ctx, cur.children.Len())
		next, ok := cur.children.Get(comp)
		cur.mu.RUnlock()
		if !ok {
			return nil, vfs.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

func (fs *FS) resolveParent(ctx *sim.Ctx, path string) (*Node, string, error) {
	dir, name, err := vfs.SplitParent(path)
	if err != nil {
		return nil, "", err
	}
	p, err := fs.resolve(ctx, dir)
	if err != nil {
		return nil, "", err
	}
	if !p.IsDir {
		return nil, "", vfs.ErrNotDir
	}
	return p, name, nil
}

// Create implements vfs.FS.
func (fs *FS) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	ctx.Syscall(fs.model.SyscallNS)
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return nil, err
	}
	h := fs.locks.Lock(ctx, parent.Ino)
	defer h.Unlock(ctx)
	parent.mu.Lock()
	if existing, ok := parent.children.Get(name); ok {
		parent.mu.Unlock()
		if existing.IsDir {
			return nil, vfs.ErrIsDir
		}
		return &File{fs: fs, node: existing}, nil
	}
	child := fs.newNode(false)
	parent.children.Set(name, child)
	parent.mu.Unlock()
	fs.hooks.MetaOp(ctx, parent, 4, MetaNamespace)
	fs.hooks.OnCreate(ctx, child)
	fs.mu.Lock()
	fs.files++
	fs.mu.Unlock()
	return &File{fs: fs, node: child}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	ctx.Syscall(fs.model.SyscallNS)
	n, err := fs.resolve(ctx, path)
	if err != nil {
		return nil, err
	}
	if n.IsDir {
		return nil, vfs.ErrIsDir
	}
	return &File{fs: fs, node: n}, nil
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(ctx *sim.Ctx, path string) error {
	ctx.Syscall(fs.model.SyscallNS)
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return err
	}
	h := fs.locks.Lock(ctx, parent.Ino)
	defer h.Unlock(ctx)
	parent.mu.Lock()
	if _, ok := parent.children.Get(name); ok {
		parent.mu.Unlock()
		return vfs.ErrExist
	}
	child := fs.newNode(true)
	parent.children.Set(name, child)
	parent.nlink++
	parent.mu.Unlock()
	fs.hooks.MetaOp(ctx, parent, 4, MetaNamespace)
	fs.hooks.OnCreate(ctx, child)
	return nil
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(ctx *sim.Ctx, path string) error {
	ctx.Syscall(fs.model.SyscallNS)
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return err
	}
	h := fs.locks.Lock(ctx, parent.Ino)
	defer h.Unlock(ctx)
	parent.mu.Lock()
	target, ok := parent.children.Get(name)
	if !ok {
		parent.mu.Unlock()
		return vfs.ErrNotExist
	}
	if target.IsDir {
		parent.mu.Unlock()
		return vfs.ErrIsDir
	}
	parent.children.Delete(name)
	parent.mu.Unlock()
	fs.hooks.MetaOp(ctx, parent, 3, MetaNamespace)
	fs.destroy(ctx, target)
	fs.mu.Lock()
	fs.files--
	fs.mu.Unlock()
	return nil
}

func (fs *FS) destroy(ctx *sim.Ctx, n *Node) {
	fs.hooks.OnDelete(ctx, n)
	n.mu.Lock()
	var ex []alloc.Extent
	for _, e := range n.extents {
		ex = append(ex, alloc.Extent{Start: e.Blk, Len: e.Len})
	}
	n.extents = nil
	n.size = 0
	maps := n.mappings
	n.mappings = nil
	n.mu.Unlock()
	// Unlink-under-mmap: shoot down live translations before the blocks
	// return to the allocator; later faults see size 0 and report
	// vfs.ErrMapFault.
	for _, m := range maps {
		m.Invalidate()
	}
	fs.hooks.Free(ctx, ex)
	fs.mu.Lock()
	delete(fs.nodes, n.Ino)
	fs.mu.Unlock()
	fs.locks.Drop(n.Ino)
}

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(ctx *sim.Ctx, path string) error {
	ctx.Syscall(fs.model.SyscallNS)
	parent, name, err := fs.resolveParent(ctx, path)
	if err != nil {
		return err
	}
	h := fs.locks.Lock(ctx, parent.Ino)
	defer h.Unlock(ctx)
	parent.mu.Lock()
	target, ok := parent.children.Get(name)
	if !ok {
		parent.mu.Unlock()
		return vfs.ErrNotExist
	}
	if !target.IsDir {
		parent.mu.Unlock()
		return vfs.ErrNotDir
	}
	target.mu.RLock()
	empty := target.children.Len() == 0
	target.mu.RUnlock()
	if !empty {
		parent.mu.Unlock()
		return vfs.ErrNotEmpty
	}
	parent.children.Delete(name)
	parent.nlink--
	parent.mu.Unlock()
	fs.hooks.MetaOp(ctx, parent, 3, MetaNamespace)
	fs.destroy(ctx, target)
	return nil
}

// Rename implements vfs.FS.
func (fs *FS) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	ctx.Syscall(fs.model.SyscallNS)
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
	first, second := oldParent, newParent
	if first.Ino > second.Ino {
		first, second = second, first
	}
	h1 := fs.locks.Lock(ctx, first.Ino)
	defer h1.Unlock(ctx)
	if second.Ino != first.Ino {
		h2 := fs.locks.Lock(ctx, second.Ino)
		defer h2.Unlock(ctx) // runs first: released in reverse order
	}

	oldParent.mu.Lock()
	moved, ok := oldParent.children.Get(oldName)
	oldParent.mu.Unlock()
	if !ok {
		return vfs.ErrNotExist
	}
	// An existing target is replaced by its own kind: a file replaces a
	// file, a directory an empty directory. (Both parents are locked: what
	// is checked here holds below.)
	newParent.mu.Lock()
	victim, replacing := newParent.children.Get(newName)
	newParent.mu.Unlock()
	if replacing = replacing && victim != moved; replacing {
		switch {
		case victim.IsDir && !moved.IsDir:
			return vfs.ErrIsDir
		case moved.IsDir && !victim.IsDir:
			return vfs.ErrNotDir
		case victim.IsDir:
			victim.mu.RLock()
			empty := victim.children.Len() == 0
			victim.mu.RUnlock()
			if !empty {
				return vfs.ErrNotEmpty
			}
		}
	}
	// A directory's ".." is a link of the directory it sits in.
	crossDir := moved.IsDir && oldParent != newParent
	oldParent.mu.Lock()
	oldParent.children.Delete(oldName)
	if crossDir {
		oldParent.nlink--
	}
	oldParent.mu.Unlock()
	newParent.mu.Lock()
	newParent.children.Set(newName, moved)
	if crossDir {
		newParent.nlink++
	}
	if replacing && victim.IsDir {
		newParent.nlink--
	}
	newParent.mu.Unlock()
	fs.hooks.MetaOp(ctx, newParent, 6, MetaNamespace)
	if replacing {
		fs.destroy(ctx, victim)
		if !victim.IsDir {
			fs.mu.Lock()
			fs.files--
			fs.mu.Unlock()
		}
	}
	return nil
}

// Stat implements vfs.FS.
func (fs *FS) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	ctx.Syscall(fs.model.SyscallNS)
	n, err := fs.resolve(ctx, path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return vfs.FileInfo{Ino: n.Ino, Size: n.size, IsDir: n.IsDir, Nlink: n.nlink}, nil
}

// ReadDir implements vfs.FS.
func (fs *FS) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	ctx.Syscall(fs.model.SyscallNS)
	n, err := fs.resolve(ctx, path)
	if err != nil {
		return nil, err
	}
	if !n.IsDir {
		return nil, vfs.ErrNotDir
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []vfs.DirEntry
	n.children.Ascend(func(name string, c *Node) bool {
		fs.hooks.DirLookup(ctx, 1)
		out = append(out, vfs.DirEntry{Name: name, Ino: c.Ino, IsDir: c.IsDir})
		return true
	})
	return out, nil
}

// StatFS implements vfs.FS.
func (fs *FS) StatFS(ctx *sim.Ctx) vfs.StatFS {
	fs.mu.RLock()
	files := fs.files
	fs.mu.RUnlock()
	return vfs.StatFS{
		TotalBlocks:   fs.hooks.TotalBlocks(),
		FreeBlocks:    fs.hooks.FreeBlocks(),
		FreeAligned2M: alloc.AlignedRegions(fs.hooks.FreeExtents()),
		Files:         files,
	}
}

// FreeExtents implements vfs.FS.
func (fs *FS) FreeExtents() []alloc.Extent { return fs.hooks.FreeExtents() }

// Unmount implements vfs.FS (baselines keep no serialised DRAM state).
func (fs *FS) Unmount(ctx *sim.Ctx) error { return nil }

// String aids debugging.
func (fs *FS) String() string { return fmt.Sprintf("%s(files=%d)", fs.Name(), fs.files) }
