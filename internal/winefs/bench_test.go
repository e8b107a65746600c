package winefs_test

import (
	"fmt"
	"testing"

	"repro/internal/ext4dax"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// The journaled POSIX path's host cost: allocation pins and
// microbenchmarks (`make bench-engine`; `make profile-posix` profiles
// BenchmarkPosixMix). Everything here goes through the public vfs surface
// on a mount aged the cheap way, so the numbers are the engine's and not a
// test hook's.

// fragmentedFS formats a 2-CPU WineFS on a fresh device and fragments its
// free space: 12KiB files fill about 60% of it and every other one is
// unlinked, so what is free is three-block holes between live files — an
// append of more than 12KiB spans several extents and a strict overwrite
// copies into a hole, as on a Geriatrix-aged image. (One inode per 8KiB of
// device: the default table is sized for files ten times larger.)
func fragmentedFS(tb testing.TB, size int64, mode vfs.ConsistencyMode) (*winefs.FS, *sim.Ctx) {
	tb.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(size), winefs.Options{CPUs: 2, Mode: mode, InodesPerCPU: size / (16 << 10)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/age"); err != nil {
		tb.Fatal(err)
	}
	filler := make([]byte, 12<<10)
	n := int(size / int64(len(filler)) * 6 / 10)
	for i := 0; i < n; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("/age/%06d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := f.Append(ctx, filler); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := fs.Unlink(ctx, fmt.Sprintf("/age/%06d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	return fs, ctx
}

const (
	mixDirs    = 16
	mixLive    = 2048
	mixMaxFile = 1 << 20
	mixMaxIO   = 64 << 10
	mixMaxRead = 16 << 10
	mixMinIO   = 4 << 10
	mixQuantum = 512
)

type mixFile struct {
	path string
	f    vfs.File
	size int64
}

// posixMix is the operation mix of the repo benchmark's posix_aged
// workload, written here from its description (benchmark/README.md): one
// thread; create + first append, append (4–64KiB, log-uniform), fsync,
// read-back (4–16KiB), 4KiB in-place overwrite, rename, stat and close +
// unlink over 16 directories, creates and unlinks balanced around 2,048
// live files.
type posixMix struct {
	tb     testing.TB
	fs     *winefs.FS
	ctx    *sim.Ctx
	rng    *sim.Rand
	live   []*mixFile
	nextID int
	buf    [mixMaxIO]byte
}

func newPosixMix(tb testing.TB, size int64, warmOps int) *posixMix {
	tb.Helper()
	fs, ctx := fragmentedFS(tb, size, vfs.Strict)
	m := &posixMix{tb: tb, fs: fs, ctx: ctx, rng: sim.NewRand(0x706f7378)}
	for d := 0; d < mixDirs; d++ {
		if err := fs.Mkdir(ctx, fmt.Sprintf("/p%02d", d)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < warmOps; i++ {
		m.step()
	}
	return m
}

func (m *posixMix) check(err error) {
	if err != nil {
		m.tb.Fatal(err)
	}
}

func (m *posixMix) newPath() string {
	m.nextID++
	return fmt.Sprintf("/p%02d/f%08d", m.rng.Intn(mixDirs), m.nextID)
}

func (m *posixMix) ioSize(max int64) int64 {
	n := int64(mixMinIO)
	for n < max && m.rng.Intn(2) == 0 {
		n *= 2
	}
	if n >= max {
		return max
	}
	return n + int64(m.rng.Intn(int(n/mixQuantum)))*mixQuantum
}

func (m *posixMix) pick() (*mixFile, int) {
	i := m.rng.Intn(len(m.live))
	return m.live[i], i
}

func (m *posixMix) step() {
	create, unlink := 8, 6
	if len(m.live) >= mixLive {
		create, unlink = 6, 8
	}
	if len(m.live) < 64 {
		m.create()
		return
	}
	switch r := m.rng.Intn(100); {
	case r < create:
		m.create()
	case r < create+unlink:
		pf, i := m.pick()
		m.check(pf.f.Close(m.ctx))
		m.check(m.fs.Unlink(m.ctx, pf.path))
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
	case r < 26:
		if pf, _ := m.pick(); pf.size < mixMaxFile {
			m.append(pf)
		} else {
			m.read(pf)
		}
	case r < 42:
		pf, _ := m.pick()
		blk := int64(m.rng.Intn(int(pf.size / winefs.BlockSize)))
		_, err := pf.f.WriteAt(m.ctx, m.buf[:winefs.BlockSize], blk*winefs.BlockSize)
		m.check(err)
	case r < 50:
		pf, _ := m.pick()
		m.check(pf.f.Fsync(m.ctx))
	case r < 55:
		pf, _ := m.pick()
		to := m.newPath()
		m.check(m.fs.Rename(m.ctx, pf.path, to))
		pf.path = to
	case r < 70:
		pf, _ := m.pick()
		fi, err := m.fs.Stat(m.ctx, pf.path)
		m.check(err)
		if fi.Size != pf.size {
			m.tb.Fatalf("stat %s: size %d, want %d", pf.path, fi.Size, pf.size)
		}
	default:
		pf, _ := m.pick()
		m.read(pf)
	}
}

func (m *posixMix) create() {
	pf := &mixFile{path: m.newPath()}
	f, err := m.fs.Create(m.ctx, pf.path)
	m.check(err)
	pf.f = f
	m.live = append(m.live, pf)
	m.append(pf)
}

func (m *posixMix) append(pf *mixFile) {
	n := m.ioSize(mixMaxIO)
	_, err := pf.f.Append(m.ctx, m.buf[:n])
	m.check(err)
	pf.size += n
}

func (m *posixMix) read(pf *mixFile) {
	n := m.ioSize(mixMaxRead)
	if n > pf.size {
		n = pf.size
	}
	off := int64(m.rng.Intn(int((pf.size-n)/mixQuantum)+1)) * mixQuantum
	got, err := pf.f.ReadAt(m.ctx, m.buf[:n], off)
	m.check(err)
	if int64(got) != n {
		m.tb.Fatalf("read %s [%d,+%d): got %d bytes", pf.path, off, n, got)
	}
}

// BenchmarkPosixMix is the microbenchmark behind `make profile-posix`:
// the posix_aged mix at its steady live count on a fragmented 512MiB
// strict mount. allocs/op includes the mix's own path strings (one
// fmt.Sprintf per create and rename, 13% of the operations).
func BenchmarkPosixMix(b *testing.B) {
	m := newPosixMix(b, 512<<20, 60_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step()
	}
}

// pinFS is a fragmented mount with a directory of 64 files of 256KiB, each
// grown by 16KiB appends interleaved with its neighbours' (many small
// extents per file), and the calendars of every lock involved run to their
// steady size by the caller's warm-up.
func pinFS(tb testing.TB, mode vfs.ConsistencyMode) (*winefs.FS, *sim.Ctx, []vfs.File) {
	tb.Helper()
	fs, ctx := fragmentedFS(tb, 128<<20, mode)
	if err := fs.Mkdir(ctx, "/d"); err != nil {
		tb.Fatal(err)
	}
	files := make([]vfs.File, 64)
	for i := range files {
		f, err := fs.Create(ctx, fmt.Sprintf("/d/f%02d", i))
		if err != nil {
			tb.Fatal(err)
		}
		files[i] = f
	}
	buf := make([]byte, 16<<10)
	for round := 0; round < 16; round++ {
		for _, f := range files {
			if _, err := f.Append(ctx, buf); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return fs, ctx, files
}

// TestPosixPathAllocations pins the journaled POSIX path's allocations per
// call, measured on a warmed, fragmented mount. The bounds are what is
// measured today, and where one is not zero the comment says what the
// allocation is: only what outlives the call may remain.
func TestPosixPathAllocations(t *testing.T) {
	fs, ctx, files := pinFS(t, vfs.Strict)
	rfs, rctx, rfiles := pinFS(t, vfs.Relaxed)
	if err := fs.Mkdir(ctx, "/e"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	pick := func(fl []vfs.File) (vfs.File, int64) { // rotate over files and over their blocks
		n++
		return fl[n%len(fl)], int64(n/len(fl)%32) * winefs.BlockSize
	}
	at, other := "/d/f00", "/e/moved"
	var names, renamed [64]string
	for i := range names {
		names[i], renamed[i] = fmt.Sprintf("/e/life%02d", i), fmt.Sprintf("/d/life%02d", i)
	}
	life := 0
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Stat", 0, func() { _, err := fs.Stat(ctx, "/d/f07"); check(err) }},
		{"4KiB ReadAt", 0, func() { f, off := pick(files); _, err := f.ReadAt(ctx, buf[:4096], off); check(err) }},
		{"4KiB relaxed in-place WriteAt", 0, func() { f, off := pick(rfiles); _, err := f.WriteAt(rctx, buf[:4096], off); check(err) }},
		// Strict, unaligned extent: copy-on-write — allocate, copy, swap the
		// extent map in a transaction, free the old block. A CoW in the
		// middle of an extent splits it, so the extent and slot slices grow
		// now and then; amortised that is under one allocation a call.
		{"4KiB strict CoW WriteAt", 0, func() { f, off := pick(files); _, err := f.WriteAt(ctx, buf[:4096], off); check(err) }},
		// The extent and slot slices again, when the append does not merge.
		{"16KiB Append", 0, func() { f, _ := pick(files); _, err := f.Append(ctx, buf); check(err) }},
		// Across two directories: each index recycles the node the other
		// direction freed, the dirent slots are reused.
		{"Rename", 0, func() { check(fs.Rename(ctx, at, other)); at, other = other, at }},
		// Opening a live file returns the handle its inode carries.
		{"Open + Close of a live file", 0, func() { f, err := fs.Open(ctx, "/d/f07"); check(err); check(f.Close(ctx)) }},
		// What a new file is: its inode and its lock object.
		// After the unlink's Drop has handed the lock's calendars back, the
		// unlink's own release books into the orphaned lock's own memory.
		// The extent records and the append's calendar grow in storage dead
		// files handed back; the directory entry's tree node, the dirent
		// slot and the inode-map and lock-table cells are the unlinked
		// predecessor's.
		{"Create + first Append + Close + Unlink", 2, func() {
			f, err := fs.Create(ctx, "/e/new")
			check(err)
			_, err = f.Append(ctx, buf[:4096])
			check(err)
			check(f.Close(ctx))
			check(fs.Unlink(ctx, "/e/new"))
		}},
		// A whole life on names no file has: the records and calendars
		// grow well past one array, every array from the dead files', and
		// all of them go back at the unlink. What is left is the row above.
		{"Create, 16 Appends, 4 Reads, Stat, Rename, Unlink", 2, func() {
			life++
			name, moved := names[life%len(names)], renamed[life%len(names)]
			f, err := fs.Create(ctx, name)
			check(err)
			for i := 0; i < 16; i++ {
				_, err = f.Append(ctx, buf[:4096])
				check(err)
			}
			for i := int64(0); i < 4; i++ {
				_, err = f.ReadAt(ctx, buf[:4096], i*4*winefs.BlockSize)
				check(err)
			}
			_, err = fs.Stat(ctx, name)
			check(err)
			check(fs.Rename(ctx, name, moved))
			check(f.Close(ctx))
			check(fs.Unlink(ctx, moved))
		}},
	} {
		for i := 0; i < 3000; i++ {
			tc.run() // the locks' calendars reach their bound, the free lists fill
		}
		got := testing.AllocsPerRun(300, tc.run)
		t.Logf("%-50s %v allocs", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
		}
	}
	for _, m := range []*winefs.FS{fs, rfs} {
		if err := m.Audit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkStat(b *testing.B) {
	fs, ctx, _ := pinFS(b, vfs.Strict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Stat(ctx, "/d/f07"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend16K appends to 64 files in turn; a file that reaches 1MiB
// is truncated to nothing first (one call in 64, inside the timed loop).
func BenchmarkAppend16K(b *testing.B) {
	_, ctx, files := pinFS(b, vfs.Strict)
	buf := make([]byte, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := files[i%len(files)]
		if f.Size() >= 1<<20 {
			if err := f.Truncate(ctx, 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.Append(ctx, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCowOverwrite4K(b *testing.B) {
	_, ctx, files := pinFS(b, vfs.Strict)
	buf := make([]byte, 4<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i/len(files)%64) * winefs.BlockSize
		if _, err := files[i%len(files)].WriteAt(ctx, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreateUnlink(b *testing.B) {
	fs, ctx, _ := pinFS(b, vfs.Strict)
	buf := make([]byte, 4<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create(ctx, "/d/new")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Append(ctx, buf); err != nil {
			b.Fatal(err)
		}
		f.Close(ctx)
		if err := fs.Unlink(ctx, "/d/new"); err != nil {
			b.Fatal(err)
		}
	}
}

// fragmentedFile is a 32MiB WineFS file of 4,096 two-block extents, grown
// by appends that take turns with a decoy's (the set-up of the benchmark's
// mmap_aged file B), then one fallocated 2MiB chunk past them that maps as
// a hugepage. It returns the file and an offset in each kind of chunk.
func fragmentedFile(tb testing.TB) (f vfs.File, ctx *sim.Ctx, basePage, hugePage int64) {
	tb.Helper()
	ctx = sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(128<<20), winefs.Options{CPUs: 1, Mode: vfs.Strict})
	if err != nil {
		tb.Fatal(err)
	}
	f, err = fs.Create(ctx, "/b")
	if err != nil {
		tb.Fatal(err)
	}
	decoy, err := fs.Create(ctx, "/decoy")
	if err != nil {
		tb.Fatal(err)
	}
	const pieces, piece = 4096, 2 * winefs.BlockSize
	buf := make([]byte, piece)
	for i := 0; i < pieces; i++ {
		for _, g := range []vfs.File{f, decoy} {
			if _, err := g.Append(ctx, buf); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := f.Fallocate(ctx, pieces*piece, mmu.HugePage); err != nil {
		tb.Fatal(err)
	}
	if n := len(f.Extents()); n != pieces+1 {
		tb.Fatalf("file has %d extents, want %d", n, pieces+1)
	}
	return f, ctx, pieces / 2 * piece, pieces*piece + 5*winefs.BlockSize
}

// TestFaultsDoNotAllocate pins the fault path at zero allocations: a fault
// resolves from the one extent its file system's index finds covering the
// page, and never copies the extent list. Both kinds of fault, on a
// 4,096-extent WineFS file and on an ext4-DAX file whose fallocated extents
// zero-on-fault has split page by page.
func TestFaultsDoNotAllocate(t *testing.T) {
	wf, wctx, wBase, wHuge := fragmentedFile(t)

	ectx := sim.NewCtx(1, 0)
	efs := ext4dax.New(pmem.New(64 << 20))
	ef, err := efs.Create(ectx, "/u")
	if err != nil {
		t.Fatal(err)
	}
	// From file offset 4KiB no chunk can be a hugepage; the separate
	// fallocation at 8MiB lands on an aligned 2MiB extent.
	if err := ef.Fallocate(ectx, winefs.BlockSize, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := ef.Fallocate(ectx, 8<<20, mmu.HugePage); err != nil {
		t.Fatal(err)
	}
	for off := int64(winefs.BlockSize); off < 4<<20; off += 2 * winefs.BlockSize {
		if _, err := ef.(mmu.FaultHandler).Fault(ectx, off); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ef.Extents()); n < 1024 {
		t.Fatalf("zero-on-fault left %d extents, want the fallocation split page by page", n)
	}

	for _, tc := range []struct {
		name string
		f    vfs.File
		ctx  *sim.Ctx
		off  int64
		huge bool
	}{
		{"WineFS base fault", wf, wctx, wBase, false},
		{"WineFS hugepage fault", wf, wctx, wHuge, true},
		{"ext4-DAX base fault", ef, ectx, 2 << 20, false},
		{"ext4-DAX hugepage fault", ef, ectx, 8<<20 + 7*winefs.BlockSize, true},
	} {
		fault := func() {
			r, err := tc.f.(mmu.FaultHandler).Fault(tc.ctx, tc.off)
			if err != nil || r.Huge != tc.huge {
				t.Fatalf("%s: %+v, %v", tc.name, r, err)
			}
		}
		fault() // the first fault into unwritten space zeroes and splits
		if got := testing.AllocsPerRun(100, fault); got != 0 {
			t.Errorf("%s: %v allocs per fault, want 0", tc.name, got)
		}
	}
}

// BenchmarkFaultFragmented is a base-page fault on the 4,096-extent file,
// rotating over its pages.
func BenchmarkFaultFragmented(b *testing.B) {
	f, ctx, _, _ := fragmentedFile(b)
	h := f.(mmu.FaultHandler)
	const pages = 4096 * 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fault(ctx, int64(i%pages)*winefs.BlockSize); err != nil {
			b.Fatal(err)
		}
	}
}
