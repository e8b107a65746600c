// Package vfs defines the file-system interface every implementation in
// the reproduction satisfies, plus the pieces of Linux VFS behaviour the
// paper's design leans on: per-inode locks (WineFS coordinates its per-CPU
// journals through them, §3.4) and path utilities.
package vfs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// Errors mirror the POSIX failures applications observe.
var (
	ErrNotExist = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	// ErrInvalid is the EINVAL analogue: the arguments name something the
	// operation cannot do, such as moving a directory into its own subtree.
	ErrInvalid  = errors.New("vfs: invalid argument")
	ErrNoSpace  = errors.New("vfs: no space left on device")
	ErrClosed   = errors.New("vfs: file closed")
	ErrReadOnly = errors.New("vfs: read-only")
	// ErrIO is the EIO analogue: an uncorrectable media error (poisoned
	// cache line) or corrupt on-PM pointer was hit while serving the
	// request. Implementations return it instead of corrupt bytes and
	// never panic on media faults.
	ErrIO = errors.New("vfs: input/output error")
	// ErrNotSupported is the ENOTSUP analogue: the operation is valid but
	// this file/file system cannot provide it (e.g. mmap of a remote
	// mount, which shares no address space with the server).
	ErrNotSupported = errors.New("vfs: operation not supported")
	// ErrMapFault is the SIGBUS analogue: an access through a memory
	// mapping touched a page beyond the file's current end (the file was
	// truncated, punched, or unlinked under the mapping, or the mapping
	// was sparse past EOF). It is a per-access error, never a stale
	// translation.
	ErrMapFault = errors.New("vfs: mapped access beyond end of file (SIGBUS)")
)

// ConsistencyMode states the crash guarantees a mounted file system
// provides (paper §3.3).
type ConsistencyMode int

const (
	// Relaxed: metadata operations are atomic and synchronous; data
	// operations may be partially complete after a crash (ext4-DAX, xfs-DAX,
	// PMFS, WineFS-relaxed).
	Relaxed ConsistencyMode = iota
	// Strict: data and metadata operations are atomic and synchronous
	// (NOVA, Strata, WineFS-strict).
	Strict
)

func (m ConsistencyMode) String() string {
	if m == Strict {
		return "strict"
	}
	return "relaxed"
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Ino   uint64
	Size  int64
	IsDir bool
	Nlink int
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	Ino   uint64
	IsDir bool
}

// StatFS summarises space accounting; FreeExtents feeds the fragmentation
// analyses.
type StatFS struct {
	TotalBlocks int64
	FreeBlocks  int64
	// FreeAligned2M counts free, aligned, contiguous hugepage regions.
	FreeAligned2M int64
	Files         int64
}

// FS is the interface all seven file systems implement. Paths are
// slash-separated and absolute ("/a/b"). All methods charge virtual time
// to ctx, including the syscall entry cost.
type FS interface {
	Name() string
	Mode() ConsistencyMode

	Create(ctx *sim.Ctx, path string) (File, error)
	Open(ctx *sim.Ctx, path string) (File, error)
	Mkdir(ctx *sim.Ctx, path string) error
	Unlink(ctx *sim.Ctx, path string) error
	Rmdir(ctx *sim.Ctx, path string) error
	Rename(ctx *sim.Ctx, oldPath, newPath string) error
	Stat(ctx *sim.Ctx, path string) (FileInfo, error)
	ReadDir(ctx *sim.Ctx, path string) ([]DirEntry, error)
	StatFS(ctx *sim.Ctx) StatFS
	// FreeExtents returns the current free-space extent list (blocks).
	FreeExtents() []alloc.Extent
	// Unmount cleanly shuts the file system down (serialising any DRAM
	// structures its design persists on unmount).
	Unmount(ctx *sim.Ctx) error
}

// File is an open file handle.
type File interface {
	Ino() uint64
	Size() int64
	ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error)
	WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error)
	// Append writes at the current end of file.
	Append(ctx *sim.Ctx, p []byte) (int, error)
	Truncate(ctx *sim.Ctx, size int64) error
	// Fallocate preallocates [off, off+n) with real blocks.
	Fallocate(ctx *sim.Ctx, off, n int64) error
	Fsync(ctx *sim.Ctx) error
	// Mmap maps length bytes of the file from offset 0. length may exceed
	// the current size for sparse mappings (LMDB-style ftruncate growth).
	// Every implementation is the package function Mmap. Such a mapping
	// has no munmap: it stays attached until its inode is destroyed.
	Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error)
	// Extents returns the file's current physical layout.
	Extents() []mmu.Extent
	SetXattr(ctx *sim.Ctx, name string, value []byte) error
	GetXattr(ctx *sim.Ctx, name string) ([]byte, bool)
	Close(ctx *sim.Ctx) error
}

// Mapper is the optional File extension behind every memory mapping. A
// file that implements it can serve page faults directly from its extent
// tree: Mmap and vmm.Map carve a mapping out of MapSpace, install a fault
// handler, and charge fault/TLB/page-walk costs per access instead of
// per-syscall copies. Files that cannot be mapped (remote mounts) simply
// don't implement it, and both report ErrNotSupported.
type Mapper interface {
	mmu.FaultHandler
	// MapSpace returns the address space mappings over this file live in;
	// nil means the file cannot be memory-mapped.
	MapSpace() *mmu.AddressSpace
	// AttachMapping registers a live mapping so layout changes (truncate,
	// punch, unlink, reactive rewriting) can shoot down its translations.
	AttachMapping(m *mmu.Mapping)
	// DetachMapping unregisters a mapping at munmap.
	DetachMapping(m *mmu.Mapping)
	// MsyncRange makes stores issued through a mapping to [off, off+n)
	// durable under the file system's rules (clwb per line + sfence; in
	// strict mode the fault-time metadata was already journaled, so no
	// further journal barrier is needed — see DESIGN.md §11).
	MsyncRange(ctx *sim.Ctx, off, n int64) error
	// MapSyscallNS is the kernel-entry cost charged per mmap/munmap/msync.
	MapSyscallNS() int64
}

// MapSpan is where Mmap and vmm.Map decide whether f can be mapped (it is
// a Mapper with an address space, else ErrNotSupported) and over how many
// bytes (length <= 0 maps the current size; none is mmu.ErrOutOfRange).
func MapSpan(f File, length int64) (Mapper, int64, error) {
	b, ok := f.(Mapper)
	if !ok || b.MapSpace() == nil {
		return nil, 0, fmt.Errorf("vfs: %T cannot be memory-mapped: %w", f, ErrNotSupported)
	}
	if length <= 0 {
		length = f.Size()
	}
	if length <= 0 {
		return nil, 0, fmt.Errorf("vfs: cannot map empty file: %w", mmu.ErrOutOfRange)
	}
	return b, length, nil
}

// Mmap is every File.Mmap: one mmap syscall and a never-detached mapping
// with the file as fault handler, attached through AttachMapping, the one
// place for registration (truncate and unlink shoot it down), lease
// revokes and the page cache's bypass.
func Mmap(ctx *sim.Ctx, f File, length int64) (*mmu.Mapping, error) {
	b, length, err := MapSpan(f, length)
	if err != nil {
		return nil, err
	}
	ctx.Syscall(b.MapSyscallNS())
	m := b.MapSpace().NewMapping(length, b)
	b.AttachMapping(m)
	return m, nil
}

// HolePuncher is the optional fallocate(FALLOC_FL_PUNCH_HOLE) extension:
// deallocate [off, off+n), leaving a hole that reads back as zeros.
type HolePuncher interface {
	PunchHole(ctx *sim.Ctx, off, n int64) error
}

// MapTracker reports how many live mappings cover an inode. The file
// server consults it before granting client leases: a locally mapped
// file must not be cached remotely (stores through the mapping bypass
// any lease protocol), so lease requests on mapped inodes are refused
// and those clients run uncached.
type MapTracker interface {
	MappedCount(ino uint64) int
}

// MapNotifier lets a server register a hook that fires when a mapping
// attaches to an inode, so leases already granted on it can be revoked
// (the reverse direction of MapTracker's refusal).
type MapNotifier interface {
	SetMapHook(hook func(ino uint64))
}

// HugeProber is an optional Mapper extension: report, without allocating
// or faulting, whether the 2MiB file chunk at chunkOff (file-offset,
// hugepage-aligned) is hugepage-eligible. The mapping subsystem uses it
// to re-promote live mappings when the file system announces an improved
// layout (§3.5 defragmenter, §3.6 reactive rewrite) instead of waiting
// for a refault. When the chunk is eligible, install — if non-nil — runs
// with the backing physical byte address while the implementation still
// holds its layout read lock, so the caller can plant a hugepage
// translation that no concurrent truncate/rewrite can race with freed
// blocks (layout changes take the write lock and shoot mappings down
// first). install must be brief and must not call back into the file.
type HugeProber interface {
	ProbeHuge(chunkOff int64, install func(phys int64)) bool
}

// XattrAligned is the extended attribute WineFS uses to persist a file's
// alignment hint across copies (§3.6).
const XattrAligned = "user.winefs.aligned"

// Split separates a cleaned path into parent directory and final element.
func Split(path string) (dir, name string) {
	path = Clean(path)
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

// SplitParent separates a cleaned path into parent directory and final
// element, rejecting paths with no final element. Split("/") returns an
// empty name, which every namespace-mutating operation (Create, Mkdir,
// Unlink, Rename, ...) must refuse rather than manufacture a nameless
// dirent; SplitParent centralises that guard so each filesystem cannot
// forget it. The root resolves to ErrExist — it always exists, matching
// what Create/Mkdir must report — and callers for which "exists" is not
// the failure (Unlink, Rmdir, rename sources) remap it to their own
// EBUSY/EINVAL-style refusal.
func SplitParent(path string) (dir, name string, err error) {
	dir, name = Split(path)
	if name == "" {
		return dir, name, ErrExist
	}
	return dir, name, nil
}

// IntoOwnSubtree reports whether newPath lies strictly below oldPath. A
// rename of a directory to such a path would detach it from the root;
// implementations refuse it with ErrInvalid. There are no symbolic links
// and no hard links to directories, so the lexical test is exact.
func IntoOwnSubtree(oldPath, newPath string) bool {
	old := Clean(oldPath)
	return old != "/" && strings.HasPrefix(Clean(newPath), old+"/")
}

// Clean normalises a path: ensures a leading slash, strips trailing
// slashes, collapses duplicate separators and resolves dot segments
// lexically. "." elements are dropped and ".." pops the previous element;
// a ".." at the root stays at the root. Every path is therefore confined
// to the export root, so untrusted client paths (the network file server
// hands Clean whatever arrives on the wire) cannot traverse above "/".
func Clean(path string) string {
	if path == "" {
		return "/"
	}
	if isClean(path) {
		// Paths are overwhelmingly already clean (every internal caller
		// builds them that way); returning them untouched skips the
		// split/join allocations on the hot lookup path.
		return path
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
			// Empty (duplicate or trailing separator) and current-dir
			// elements contribute nothing.
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return "/"
	}
	return "/" + strings.Join(out, "/")
}

// isClean reports whether Clean would return path unchanged: a leading
// slash, no trailing slash (except "/" itself), and no empty, "." or ".."
// elements.
func isClean(path string) bool {
	if path[0] != '/' {
		return false
	}
	if len(path) == 1 {
		return true
	}
	if path[len(path)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			switch path[start:i] {
			case "", ".", "..":
				return false
			}
			start = i + 1
		}
	}
	return true
}

// Components splits a cleaned path into its elements; "/" yields nil.
func Components(path string) []string {
	path = Clean(path)
	if path == "/" {
		return nil
	}
	return strings.Split(path[1:], "/")
}

// The per-inode reader/writer + byte-range lock table lives in locks.go.
