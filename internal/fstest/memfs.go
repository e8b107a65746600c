package fstest

import (
	"sync"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// DataOp names a data call MemFS reports to its OnData hook.
type DataOp byte

const (
	DataRead     DataOp = 'R'
	DataWrite    DataOp = 'W'
	DataAppend   DataOp = 'A'
	DataTruncate DataOp = 'T'
)

// MemFS is a flat in-memory vfs.FS for tests of the layers above a file
// system — the page cache, the file server. It charges no virtual time,
// its ReadAt and in-place WriteAt allocate nothing (so allocation pins on
// the layers above measure those layers), and every data call can be
// observed, stalled or failed through OnData. Directories are not
// modelled: Mkdir and Rmdir succeed and any path names a file.
//
// Its files also carry the lease surface of a remote mount (Lease always
// grants; Revoke delivers a revocation the way a server would), so a
// pagecache.Cache can sit directly on one.
type MemFS struct {
	// OnData, when set, runs at the start of every ReadAt, WriteAt, Append
	// and Truncate, before the call takes effect and with no lock held —
	// it may block. A non-nil error fails the call. Set it before the FS
	// is shared between goroutines.
	OnData func(op DataOp, ino uint64, off int64, n int) error

	mu      sync.Mutex
	files   map[string]*memInode
	nextIno uint64
	revoke  func(ino uint64)
}

type memInode struct {
	ino  uint64
	mu   sync.Mutex
	data []byte
}

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memInode), nextIno: 2} }

var _ vfs.FS = (*MemFS)(nil)

// Name implements vfs.FS.
func (m *MemFS) Name() string { return "memfs" }

// Mode implements vfs.FS.
func (m *MemFS) Mode() vfs.ConsistencyMode { return vfs.Strict }

// Create implements vfs.FS.
func (m *MemFS) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] != nil {
		return nil, vfs.ErrExist
	}
	in := &memInode{ino: m.nextIno}
	m.nextIno++
	m.files[path] = in
	return &memFile{fs: m, in: in}, nil
}

// Open implements vfs.FS.
func (m *MemFS) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	in := m.files[path]
	if in == nil {
		return nil, vfs.ErrNotExist
	}
	return &memFile{fs: m, in: in}, nil
}

// Mkdir implements vfs.FS.
func (m *MemFS) Mkdir(ctx *sim.Ctx, path string) error { return nil }

// Rmdir implements vfs.FS.
func (m *MemFS) Rmdir(ctx *sim.Ctx, path string) error { return nil }

// Unlink implements vfs.FS.
func (m *MemFS) Unlink(ctx *sim.Ctx, path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		return vfs.ErrNotExist
	}
	delete(m.files, path)
	return nil
}

// Rename implements vfs.FS.
func (m *MemFS) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	in := m.files[oldPath]
	if in == nil {
		return vfs.ErrNotExist
	}
	delete(m.files, oldPath)
	m.files[newPath] = in
	return nil
}

// Stat implements vfs.FS.
func (m *MemFS) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	m.mu.Lock()
	in := m.files[path]
	m.mu.Unlock()
	if in == nil {
		return vfs.FileInfo{}, vfs.ErrNotExist
	}
	return vfs.FileInfo{Ino: in.ino, Size: in.size(), Nlink: 1}, nil
}

// ReadDir implements vfs.FS.
func (m *MemFS) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) { return nil, nil }

// StatFS implements vfs.FS.
func (m *MemFS) StatFS(ctx *sim.Ctx) vfs.StatFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	return vfs.StatFS{Files: int64(len(m.files))}
}

// FreeExtents implements vfs.FS.
func (m *MemFS) FreeExtents() []alloc.Extent { return nil }

// Unmount implements vfs.FS.
func (m *MemFS) Unmount(ctx *sim.Ctx) error { return nil }

// SetRevokeHandler makes MemFS a pagecache.RevokeSource.
func (m *MemFS) SetRevokeHandler(h func(ino uint64)) {
	m.mu.Lock()
	m.revoke = h
	m.mu.Unlock()
}

// Revoke delivers a lease revocation for ino and returns once the handler
// has, like a server waiting for the holder's ack.
func (m *MemFS) Revoke(ino uint64) {
	m.mu.Lock()
	h := m.revoke
	m.mu.Unlock()
	if h != nil {
		h(ino)
	}
}

func (in *memInode) size() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int64(len(in.data))
}

// resizeLocked sets the file size; new bytes are zero.
func (in *memInode) resizeLocked(size int64) {
	if size <= int64(cap(in.data)) {
		old := len(in.data)
		in.data = in.data[:size]
		if size > int64(old) {
			clear(in.data[old:])
		}
		return
	}
	in.data = append(in.data, make([]byte, size-int64(len(in.data)))...)
}

type memFile struct {
	fs *MemFS
	in *memInode
}

func (f *memFile) hook(op DataOp, off int64, n int) error {
	if h := f.fs.OnData; h != nil {
		return h(op, f.in.ino, off, n)
	}
	return nil
}

func (f *memFile) Ino() uint64 { return f.in.ino }
func (f *memFile) Size() int64 { return f.in.size() }

func (f *memFile) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := f.hook(DataRead, off, len(p)); err != nil {
		return 0, err
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	if off < 0 || off >= int64(len(f.in.data)) {
		return 0, nil
	}
	return copy(p, f.in.data[off:]), nil
}

func (f *memFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := f.hook(DataWrite, off, len(p)); err != nil {
		return 0, err
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.in.data)) {
		f.in.resizeLocked(end)
	}
	return copy(f.in.data[off:], p), nil
}

func (f *memFile) Append(ctx *sim.Ctx, p []byte) (int, error) {
	if err := f.hook(DataAppend, 0, len(p)); err != nil {
		return 0, err
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	f.in.data = append(f.in.data, p...)
	return len(p), nil
}

func (f *memFile) Truncate(ctx *sim.Ctx, size int64) error {
	if err := f.hook(DataTruncate, size, 0); err != nil {
		return err
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	f.in.resizeLocked(size)
	return nil
}

func (f *memFile) Fallocate(ctx *sim.Ctx, off, n int64) error {
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	if off+n > int64(len(f.in.data)) {
		f.in.resizeLocked(off + n)
	}
	return nil
}

func (f *memFile) Fsync(ctx *sim.Ctx) error { return nil }
func (f *memFile) Close(ctx *sim.Ctx) error { return nil }

func (f *memFile) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return vfs.Mmap(ctx, f, length)
}
func (f *memFile) Extents() []mmu.Extent { return nil }
func (f *memFile) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	return vfs.ErrNotSupported
}
func (f *memFile) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) { return nil, false }

// Lease and Unlease make the file a pagecache.Leasable that is always
// granted.
func (f *memFile) Lease(ctx *sim.Ctx, write bool) (bool, error) { return true, nil }
func (f *memFile) Unlease(ctx *sim.Ctx) error                   { return nil }
