package vmm_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

func newFS(t *testing.T) (*sim.Ctx, *winefs.FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(256<<20), winefs.Options{CPUs: 2, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fs
}

func mkFile(t *testing.T, ctx *sim.Ctx, fs *winefs.FS, path string, pattern byte, n int64) vfs.File {
	t.Helper()
	f, err := fs.Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = pattern
	}
	if _, err := f.WriteAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReadOnlyMappingRefusesStores(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/ro", 0x61, 1<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeReadOnly, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	buf := make([]byte, 128)
	if err := m.Read(ctx, buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x61}, 128)) {
		t.Fatalf("read %x, want 0x61", buf[:8])
	}
	if err := m.Write(ctx, buf, 0); !errors.Is(err, vmm.ErrReadOnlyMapping) {
		t.Fatalf("store to PROT_READ mapping: err = %v, want ErrReadOnlyMapping", err)
	}
	if err := m.Touch(ctx, 0, 4096, true); !errors.Is(err, vmm.ErrReadOnlyMapping) {
		t.Fatalf("write-touch of PROT_READ mapping: err = %v, want ErrReadOnlyMapping", err)
	}
}

// TestPrivateMappingCopyOnWrite: MAP_PRIVATE stores break the page into a
// DRAM shadow, stay visible through the mapping, and never reach the file.
func TestPrivateMappingCopyOnWrite(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/priv", 0x62, 1<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModePrivate, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	upd := bytes.Repeat([]byte{0x99}, 256)
	if err := m.Write(ctx, upd, 8192); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMCowBreaks; got != 1 {
		t.Fatalf("VMMCowBreaks = %d, want 1", got)
	}
	// The store is visible through the mapping, merged with the
	// unmodified bytes around it on the same page.
	buf := make([]byte, 512)
	if err := m.Read(ctx, buf, 8192-128); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0x62}, 128), upd...)
	want = append(want, bytes.Repeat([]byte{0x62}, 128)...)
	if !bytes.Equal(buf, want) {
		t.Fatal("private mapping read does not merge the CoW shadow with the page")
	}
	// The file never sees it.
	if _, err := f.ReadAt(ctx, buf[:256], 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:256], bytes.Repeat([]byte{0x62}, 256)) {
		t.Fatal("private-mapping store leaked into the backing file")
	}
	// Msync on a private mapping is a no-op: nothing shared to sync.
	if err := m.Msync(ctx, 0, -1); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got != 0 {
		t.Fatalf("VMMMsyncBytes = %d for private mapping, want 0", got)
	}
}

// TestSharedMsyncCounters: shared stores mark dirty pages; Msync flushes
// exactly the dirty range once and the counters say so.
func TestSharedMsyncCounters(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/sh", 0x63, 1<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	upd := bytes.Repeat([]byte{0x70}, 100)
	if err := m.Write(ctx, upd, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(ctx, upd, 5*4096); err != nil {
		t.Fatal(err)
	}
	if err := m.Msync(ctx, 0, -1); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncs; got != 1 {
		t.Fatalf("VMMMsyncs = %d, want 1", got)
	}
	if got := ctx.Counters.VMMMsyncBytes; got != 2*4096 {
		t.Fatalf("VMMMsyncBytes = %d, want %d (two dirty pages)", got, 2*4096)
	}
	// Dirt is gone: a second msync flushes nothing.
	if err := m.Msync(ctx, 0, -1); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got != 2*4096 {
		t.Fatalf("VMMMsyncBytes after clean msync = %d, want unchanged %d", got, 2*4096)
	}
	// The stores are durable in the file.
	buf := make([]byte, 100)
	if _, err := f.ReadAt(ctx, buf, 5*4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, upd) {
		t.Fatal("file missing bytes stored through the shared mapping")
	}
}

// TestSyncImmediatePolicy: every store through a SyncImmediate mapping
// reaches the device without an explicit Msync.
func TestSyncImmediatePolicy(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/imm", 0x64, 1<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, Sync: vmm.SyncImmediate, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	if err := m.Write(ctx, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got == 0 {
		t.Fatal("SyncImmediate store produced no msync bytes")
	}
}

// TestSyncPeriodicPolicy: stores under SyncEveryBytes stay dirty; the
// store that crosses it flushes every dirty page of the mapping, and the
// count starts again from zero.
func TestSyncPeriodicPolicy(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/per", 0x66, 2<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, Sync: vmm.SyncPeriodic, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	// One byte short of the threshold, spread over the first 256 pages.
	page := make([]byte, 4096)
	const pages = vmm.SyncEveryBytes / 4096
	for pg := int64(0); pg < pages; pg++ {
		n := len(page)
		if pg == pages-1 {
			n--
		}
		if err := m.Write(ctx, page[:n], pg*4096); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctx.Counters.VMMMsyncBytes; got != 0 {
		t.Fatalf("%d bytes under the threshold msynced %d bytes, want 0", vmm.SyncEveryBytes-1, got)
	}

	// The crossing store lands on a page of its own: every dirty page,
	// that one included, becomes durable.
	if err := m.Write(ctx, page[:1], pages*4096); err != nil {
		t.Fatal(err)
	}
	want := int64(pages+1) * 4096
	if got := ctx.Counters.VMMMsyncBytes; got != want {
		t.Fatalf("crossing store msynced %d bytes, want %d (every dirty page)", got, want)
	}
	if err := m.Msync(ctx, 0, -1); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got != want {
		t.Fatalf("explicit msync after the periodic one flushed %d more bytes, want 0", got-want)
	}

	// The count restarted: one more store stays dirty.
	if err := m.Write(ctx, page[:1], 0); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got != want {
		t.Fatalf("store after the periodic msync flushed %d bytes, want 0", got-want)
	}
}

// TestCloseFlushesDirt: unflushed shared stores are made durable by the
// implicit msync in Close, and the mapping is dead afterwards.
func TestCloseFlushesDirt(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/cl", 0x65, 1<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(ctx, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.VMMMsyncBytes; got == 0 {
		t.Fatal("Close flushed nothing despite dirty pages")
	}
	if err := m.Close(ctx); !errors.Is(err, vmm.ErrClosed) {
		t.Fatalf("double close: err = %v, want ErrClosed", err)
	}
	if err := m.Read(ctx, make([]byte, 8), 0); !errors.Is(err, vmm.ErrClosed) {
		t.Fatalf("read after munmap: err = %v, want ErrClosed", err)
	}
}

// TestWindowedMappingSlides: a mapping narrower than the file slides its
// window on demand, counts the remaps, and reads correct bytes at every
// position.
func TestWindowedMappingSlides(t *testing.T) {
	ctx, fs := newFS(t)
	const size = 16 << 20
	f, err := fs.Create(ctx, "/win")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct pattern per MiB so window translation errors are visible.
	chunk := make([]byte, 1<<20)
	for mb := int64(0); mb < size>>20; mb++ {
		for i := range chunk {
			chunk[i] = byte(mb)
		}
		if _, err := f.WriteAt(ctx, chunk, mb<<20); err != nil {
			t.Fatal(err)
		}
	}

	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeReadOnly, AddressBudget: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	buf := make([]byte, 64)
	for _, mb := range []int64{0, 3, 15, 1, 14, 0} {
		if err := m.Read(ctx, buf, mb<<20); err != nil {
			t.Fatalf("read at %dMiB: %v", mb, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(mb)}, 64)) {
			t.Fatalf("read at %dMiB got byte %#x, want %#x", mb, buf[0], byte(mb))
		}
	}
	if got := ctx.Counters.VMMWindowRemaps; got < 3 {
		t.Fatalf("VMMWindowRemaps = %d, want >= 3 for the out-of-window hops", got)
	}
}

func TestMapPathAndPreload(t *testing.T) {
	ctx, fs := newFS(t)
	mkFile(t, ctx, fs, "/mp", 0x66, 4<<20).Close(ctx)

	m, err := vmm.MapPath(ctx, fs, "/mp", 0, vmm.Config{
		Mode: vmm.ModeReadOnly, MapFullFile: true, Preload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Preload faulted everything up front.
	if huge, total := m.FaultedChunks(); total == 0 || huge != total {
		t.Fatalf("FaultedChunks = %d/%d after preload of an aligned file, want all huge", huge, total)
	}
	buf := make([]byte, 64)
	if err := m.Read(ctx, buf, 3<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x66}, 64)) {
		t.Fatalf("read %x, want 0x66", buf[:8])
	}
	// MapPath owns the file handle: Close tears both down.
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMapRequiresMapper(t *testing.T) {
	ctx, _ := newFS(t)
	if _, err := vmm.Map(ctx, nonMapper{}, 4096, vmm.Config{}); !errors.Is(err, vfs.ErrNotSupported) {
		t.Fatalf("map of non-Mapper file: err = %v, want ErrNotSupported", err)
	}
}

// nonMapper is a vfs.File that does not implement vfs.Mapper.
type nonMapper struct{ vfs.File }

func (nonMapper) Size() int64 { return 4096 }
