package tracefs

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// The optional interfaces a decorated value keeps when — and only
// when — the value it wraps has them. Leasable and RevokeSource are
// declared here with the method sets of pagecache.Leasable and
// pagecache.RevokeSource, so the decorator satisfies those without
// importing the cache.
type (
	// Leasable is pagecache.Leasable.
	Leasable interface {
		Lease(ctx *sim.Ctx, write bool) (bool, error)
		Unlease(ctx *sim.Ctx) error
	}
	// RevokeSource is pagecache.RevokeSource.
	RevokeSource interface {
		SetRevokeHandler(func(ino uint64))
	}
)

// WrapFS returns inner decorated so that every call into it — and into
// every file it hands out — records a span of the given layer. A nil
// tracer returns inner itself.
//
// A struct type's method set is fixed, so a decorator that answers a
// type assertion exactly as the value it wraps would needs one type per
// combination of optional interfaces. WrapFS and WrapFile have one for
// each combination the stack's own types show, and panic on any other:
// a new file-system type gets its case here when it arrives, and the
// workload smoke test is where its absence shows.
func WrapFS(t *Tracer, inner vfs.FS, layer Layer) vfs.FS {
	if t == nil {
		return inner
	}
	b := &fsBase{t: t, inner: inner, layer: layer}
	rs, hasRS := inner.(RevokeSource)
	mt, hasMT := inner.(vfs.MapTracker)
	mn, hasMN := inner.(vfs.MapNotifier)
	switch [3]bool{hasRS, hasMT, hasMN} {
	case [3]bool{}: // pagecache.Cache
		return b
	case [3]bool{true, false, false}: // fileserver.Client
		return struct {
			*fsBase
			RevokeSource
		}{b, rs}
	case [3]bool{false, true, true}: // winefs.FS
		return struct {
			*fsBase
			vfs.MapTracker
			vfs.MapNotifier
		}{b, mt, mn}
	}
	panic(fmt.Sprintf("tracefs: no decorator for %T (RevokeSource %v, MapTracker %v, MapNotifier %v): add the combination to WrapFS",
		inner, hasRS, hasMT, hasMN))
}

type fsBase struct {
	t     *Tracer
	inner vfs.FS
	layer Layer
}

func (f *fsBase) Name() string                { return f.inner.Name() }
func (f *fsBase) Mode() vfs.ConsistencyMode   { return f.inner.Mode() }
func (f *fsBase) FreeExtents() []alloc.Extent { return f.inner.FreeExtents() }

func (f *fsBase) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	h := f.t.Start(ctx, f.layer, OpCreate)
	in, err := f.inner.Create(ctx, path)
	f.t.End(h, err)
	if err != nil {
		return nil, err
	}
	return WrapFile(f.t, in, f.layer), nil
}

func (f *fsBase) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	h := f.t.Start(ctx, f.layer, OpOpen)
	in, err := f.inner.Open(ctx, path)
	f.t.End(h, err)
	if err != nil {
		return nil, err
	}
	return WrapFile(f.t, in, f.layer), nil
}

func (f *fsBase) Mkdir(ctx *sim.Ctx, path string) error {
	h := f.t.Start(ctx, f.layer, OpMkdir)
	err := f.inner.Mkdir(ctx, path)
	f.t.End(h, err)
	return err
}

func (f *fsBase) Unlink(ctx *sim.Ctx, path string) error {
	h := f.t.Start(ctx, f.layer, OpUnlink)
	err := f.inner.Unlink(ctx, path)
	f.t.End(h, err)
	return err
}

func (f *fsBase) Rmdir(ctx *sim.Ctx, path string) error {
	h := f.t.Start(ctx, f.layer, OpRmdir)
	err := f.inner.Rmdir(ctx, path)
	f.t.End(h, err)
	return err
}

func (f *fsBase) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	h := f.t.Start(ctx, f.layer, OpRename)
	err := f.inner.Rename(ctx, oldPath, newPath)
	f.t.End(h, err)
	return err
}

func (f *fsBase) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	h := f.t.Start(ctx, f.layer, OpStat)
	fi, err := f.inner.Stat(ctx, path)
	f.t.End(h, err)
	return fi, err
}

func (f *fsBase) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	h := f.t.Start(ctx, f.layer, OpReadDir)
	ents, err := f.inner.ReadDir(ctx, path)
	f.t.End(h, err)
	return ents, err
}

func (f *fsBase) StatFS(ctx *sim.Ctx) vfs.StatFS {
	h := f.t.Start(ctx, f.layer, OpStatFS)
	st := f.inner.StatFS(ctx)
	f.t.End(h, nil)
	return st
}

func (f *fsBase) Unmount(ctx *sim.Ctx) error {
	h := f.t.Start(ctx, f.layer, OpUnmount)
	err := f.inner.Unmount(ctx)
	f.t.End(h, err)
	return err
}

// WrapFile decorates one open file. A nil tracer returns inner itself.
func WrapFile(t *Tracer, inner vfs.File, layer Layer) vfs.File {
	if t == nil {
		return inner
	}
	b := &fileBase{t: t, inner: inner, layer: layer}
	l, hasL := inner.(Leasable)
	m, hasM := inner.(vfs.Mapper)
	hp, hasH := inner.(vfs.HugeProber)
	p, hasP := inner.(vfs.HolePuncher)
	switch [4]bool{hasL, hasM, hasH, hasP} {
	case [4]bool{}:
		return b
	case [4]bool{true, false, false, false}: // fileserver's remote file
		return struct {
			*fileBase
			leaseExt
		}{b, leaseExt{b, l}}
	case [4]bool{false, true, false, false}: // pagecache's cached file
		return struct {
			*fileBase
			mapExt
		}{b, mapExt{b, m}}
	case [4]bool{false, true, true, true}: // winefs.File
		return struct {
			*fileBase
			mapExt
			vfs.HugeProber
			punchExt
		}{b, mapExt{b, m}, hp, punchExt{b, p}}
	}
	panic(fmt.Sprintf("tracefs: no decorator for %T (Leasable %v, Mapper %v, HugeProber %v, HolePuncher %v): add the combination to WrapFile",
		inner, hasL, hasM, hasH, hasP))
}

type fileBase struct {
	t     *Tracer
	inner vfs.File
	layer Layer
}

func (f *fileBase) Ino() uint64           { return f.inner.Ino() }
func (f *fileBase) Size() int64           { return f.inner.Size() }
func (f *fileBase) Extents() []mmu.Extent { return f.inner.Extents() }

func (f *fileBase) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	h := f.t.Start(ctx, f.layer, OpRead)
	n, err := f.inner.ReadAt(ctx, p, off)
	f.t.End(h, err)
	return n, err
}

func (f *fileBase) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	h := f.t.Start(ctx, f.layer, OpWrite)
	n, err := f.inner.WriteAt(ctx, p, off)
	f.t.End(h, err)
	return n, err
}

func (f *fileBase) Append(ctx *sim.Ctx, p []byte) (int, error) {
	h := f.t.Start(ctx, f.layer, OpAppend)
	n, err := f.inner.Append(ctx, p)
	f.t.End(h, err)
	return n, err
}

func (f *fileBase) Truncate(ctx *sim.Ctx, size int64) error {
	h := f.t.Start(ctx, f.layer, OpTruncate)
	err := f.inner.Truncate(ctx, size)
	f.t.End(h, err)
	return err
}

func (f *fileBase) Fallocate(ctx *sim.Ctx, off, n int64) error {
	h := f.t.Start(ctx, f.layer, OpFallocate)
	err := f.inner.Fallocate(ctx, off, n)
	f.t.End(h, err)
	return err
}

func (f *fileBase) Fsync(ctx *sim.Ctx) error {
	h := f.t.Start(ctx, f.layer, OpFsync)
	err := f.inner.Fsync(ctx)
	f.t.End(h, err)
	return err
}

func (f *fileBase) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	h := f.t.Start(ctx, f.layer, OpMmap)
	m, err := f.inner.Mmap(ctx, length)
	f.t.End(h, err)
	return m, err
}

func (f *fileBase) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	h := f.t.Start(ctx, f.layer, OpSetXattr)
	err := f.inner.SetXattr(ctx, name, value)
	f.t.End(h, err)
	return err
}

func (f *fileBase) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	h := f.t.Start(ctx, f.layer, OpGetXattr)
	v, ok := f.inner.GetXattr(ctx, name)
	f.t.End(h, nil)
	return v, ok
}

func (f *fileBase) Close(ctx *sim.Ctx) error {
	h := f.t.Start(ctx, f.layer, OpClose)
	err := f.inner.Close(ctx)
	f.t.End(h, err)
	return err
}

type leaseExt struct {
	f *fileBase
	l Leasable
}

func (e leaseExt) Lease(ctx *sim.Ctx, write bool) (bool, error) {
	h := e.f.t.Start(ctx, e.f.layer, OpLease)
	ok, err := e.l.Lease(ctx, write)
	e.f.t.End(h, err)
	return ok, err
}

func (e leaseExt) Unlease(ctx *sim.Ctx) error {
	h := e.f.t.Start(ctx, e.f.layer, OpUnlease)
	err := e.l.Unlease(ctx)
	e.f.t.End(h, err)
	return err
}

// mapExt keeps a decorated file mappable: the mapping subsystem faults
// and syncs through it, so the file system's share of a mapped access
// shows as a child span of the access.
type mapExt struct {
	f *fileBase
	m vfs.Mapper
}

func (e mapExt) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	h := e.f.t.Start(ctx, e.f.layer, OpFault)
	res, err := e.m.Fault(ctx, pageOff)
	e.f.t.End(h, err)
	return res, err
}

func (e mapExt) MsyncRange(ctx *sim.Ctx, off, n int64) error {
	h := e.f.t.Start(ctx, e.f.layer, OpMsyncRange)
	err := e.m.MsyncRange(ctx, off, n)
	e.f.t.End(h, err)
	return err
}

func (e mapExt) MapSpace() *mmu.AddressSpace  { return e.m.MapSpace() }
func (e mapExt) AttachMapping(m *mmu.Mapping) { e.m.AttachMapping(m) }
func (e mapExt) DetachMapping(m *mmu.Mapping) { e.m.DetachMapping(m) }
func (e mapExt) MapSyscallNS() int64          { return e.m.MapSyscallNS() }

type punchExt struct {
	f *fileBase
	p vfs.HolePuncher
}

func (e punchExt) PunchHole(ctx *sim.Ctx, off, n int64) error {
	h := e.f.t.Start(ctx, e.f.layer, OpPunchHole)
	err := e.p.PunchHole(ctx, off, n)
	e.f.t.End(h, err)
	return err
}

// Mapping is the part of *vmm.Mapping the driver uses.
type Mapping interface {
	Read(ctx *sim.Ctx, p []byte, off int64) error
	Write(ctx *sim.Ctx, p []byte, off int64) error
	Touch(ctx *sim.Ctx, off, n int64, write bool) error
	Msync(ctx *sim.Ctx, off, n int64) error
	FaultedChunks() (huge, total int)
	Close(ctx *sim.Ctx) error
}

// WrapMapping decorates a mapping handle: every access through it is a
// span of the vmm layer. A nil tracer returns inner itself.
func WrapMapping(t *Tracer, inner Mapping) Mapping {
	if t == nil {
		return inner
	}
	return &mapping{t: t, inner: inner}
}

type mapping struct {
	t     *Tracer
	inner Mapping
}

func (m *mapping) FaultedChunks() (huge, total int) { return m.inner.FaultedChunks() }

func (m *mapping) Read(ctx *sim.Ctx, p []byte, off int64) error {
	h := m.t.Start(ctx, VMM, OpMapRead)
	err := m.inner.Read(ctx, p, off)
	m.t.End(h, err)
	return err
}

func (m *mapping) Write(ctx *sim.Ctx, p []byte, off int64) error {
	h := m.t.Start(ctx, VMM, OpMapWrite)
	err := m.inner.Write(ctx, p, off)
	m.t.End(h, err)
	return err
}

func (m *mapping) Touch(ctx *sim.Ctx, off, n int64, write bool) error {
	h := m.t.Start(ctx, VMM, OpMapTouch)
	err := m.inner.Touch(ctx, off, n, write)
	m.t.End(h, err)
	return err
}

func (m *mapping) Msync(ctx *sim.Ctx, off, n int64) error {
	h := m.t.Start(ctx, VMM, OpMsync)
	err := m.inner.Msync(ctx, off, n)
	m.t.End(h, err)
	return err
}

func (m *mapping) Close(ctx *sim.Ctx) error {
	h := m.t.Start(ctx, VMM, OpMapClose)
	err := m.inner.Close(ctx)
	m.t.End(h, err)
	return err
}
