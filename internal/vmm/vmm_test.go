package vmm_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mmu"
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

func TestMapPreload(t *testing.T) {
	ctx, fs := newFS(t)
	f := mkFile(t, ctx, fs, "/mp", 0x66, 4<<20)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{
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
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
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

// TestSyncDirtyPagesExact pins the page set msync flushes on a mapping
// whose length is not a multiple of 4KiB: a sub-range msync flushes
// exactly the dirty pages inside it, run by run; a second one finds
// nothing; Close flushes the rest, the partial last page as its bytes.
func TestSyncDirtyPagesExact(t *testing.T) {
	ctx, fs := newFS(t)
	const length = 256<<12 + 1000 // 256 whole pages and a partial one
	f := mkFile(t, ctx, fs, "/exact", 0x67, length)
	m, err := vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	// Length 0 maps the whole file, its partial last page included.
	if err := m.Write(ctx, []byte{1}, length); !errors.Is(err, mmu.ErrOutOfRange) {
		t.Fatalf("store one past the file's size: err = %v, want ErrOutOfRange", err)
	}
	line := bytes.Repeat([]byte{0x71}, 64)
	// Pages 0, 7, 63, 64, 65, 130 and 256 (the partial page), and one
	// store straddling pages 99 and 100; 63|64 and 127|128 cross bitmap
	// words.
	for _, off := range []int64{0, 7<<12 + 100, 63<<12 + 4000, 64 << 12, 65<<12 + 64, 130 << 12, 256<<12 + 900, 100<<12 - 10} {
		if err := m.Write(ctx, line[:min(64, length-off)], off); err != nil {
			t.Fatalf("store at %d: %v", off, err)
		}
	}
	flushed := func() int64 { return ctx.Counters.VMMMsyncBytes }

	// Pages 64..130: the runs 64-65, 99-100 and 130.
	lo := int64(64<<12 + 100)
	if err := m.Msync(ctx, lo, 131<<12-lo); err != nil {
		t.Fatal(err)
	}
	if got, want := flushed(), int64(5<<12); got != want {
		t.Fatalf("sub-range msync flushed %d bytes, want %d (pages 64, 65, 99, 100, 130)", got, want)
	}
	if err := m.Msync(ctx, lo, 131<<12-lo); err != nil {
		t.Fatal(err)
	}
	if got, want := flushed(), int64(5<<12); got != want {
		t.Fatalf("second msync flushed %d bytes, want 0", got-want)
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := flushed()-5<<12, int64(3<<12+1000); got != want {
		t.Fatalf("Close flushed %d bytes, want %d (pages 0, 7, 63 and the 1000-byte page 256)", got, want)
	}
}

// TestWindowedConcurrentSlideAndClose drives four sim threads through
// one shared mapping of a 256MiB file with a 64MiB address budget, at
// offsets that keep sliding the window under each other, and checks
// every byte read back. Then Close races the accesses: each returns nil
// or ErrClosed, and nothing panics.
func TestWindowedConcurrentSlideAndClose(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	fs, err := winefs.Mkfs(ctx, pmem.New(512<<20), winefs.Options{CPUs: 4, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 20
	f, err := fs.Create(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		t.Fatal(err)
	}
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, AddressBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// Thread th owns the 16 slots at (16*i+4*th) MiB: every thread ranges
	// over the whole file, so each access may slide the window away from
	// another thread's. Each slot has a device chunk of its own.
	const threads, slots, rounds = 4, 16, 300
	slotOff := func(th, i int) int64 { return int64(16*i+4*th) << 20 }
	tctxs := sim.NewThreads(threads, 10, threads, 0)
	if err := sim.RunThreads(tctxs, func(th int, tctx *sim.Ctx) error {
		rng := sim.NewRand(uint64(th + 1))
		want := make([]byte, slots) // 0: never stored
		buf := make([]byte, 64)
		for r := 0; r < rounds; r++ {
			i := rng.Intn(slots)
			off := slotOff(th, i)
			if err := m.Read(tctx, buf, off); err != nil {
				return err
			}
			for _, b := range buf {
				if b != want[i] {
					return fmt.Errorf("thread %d slot %d: read %#x, want %#x", th, i, b, want[i])
				}
			}
			want[i] = byte(r%255 + 1)
			for j := range buf {
				buf[j] = want[i]
			}
			if err := m.Write(tctx, buf, off); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var remaps int64
	for _, c := range tctxs {
		remaps += c.Counters.VMMWindowRemaps
	}
	if remaps < rounds {
		t.Fatalf("%d window remaps over %d accesses, want the window to keep sliding", remaps, threads*rounds*2)
	}

	// Close against in-flight accesses: every access that starts after it
	// returns ErrClosed, so each thread stops on its own. The last member
	// closes the mapping once the others are under way, or all have
	// stopped.
	var done, running atomic.Int64
	running.Store(threads)
	if err := sim.RunThreads(append(sim.NewThreads(threads, 20, threads, 0), ctx), func(th int, tctx *sim.Ctx) error {
		if th == threads {
			for done.Load() < 64 && running.Load() > 0 {
				runtime.Gosched()
			}
			return m.Close(tctx)
		}
		defer running.Add(-1)
		rng := sim.NewRand(uint64(100 + th))
		buf := make([]byte, 64)
		for n := 0; ; n++ {
			off := slotOff(th, rng.Intn(slots))
			var err error
			if n%2 == 0 {
				err = m.Read(tctx, buf, off)
			} else {
				err = m.Write(tctx, buf, off)
			}
			if errors.Is(err, vmm.ErrClosed) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("thread %d: access racing Close: %v", th, err)
			}
			done.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
