package pmem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(16 << 20)
	data := []byte("hello persistent world")
	d.WriteAt(data, 12345)
	got := make([]byte, len(data))
	d.ReadAt(got, 12345)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestUnbackedReadsZero(t *testing.T) {
	d := New(16 << 20)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xff
	}
	d.ReadAt(buf, 4<<20)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unbacked byte %d = %x", i, b)
		}
	}
}

// TestDeviceDiffs: comparing two devices in place reports one span per
// differing chunk, a chunk one side lacks reading as zeros, and leaves both
// devices' contents as they were.
func TestDeviceDiffs(t *testing.T) {
	a, b := New(16<<20), New(16<<20)
	a.WriteAt([]byte{1, 2, 3, 4}, 100)
	b.WriteAt([]byte{1, 9, 3, 8}, 100)
	a.WriteAt([]byte{7}, 5<<20)              // a chunk only a backs
	b.WriteAt(make([]byte, 64), 9<<20)       // a chunk only b backs, all zeros
	b.WriteAt([]byte{1}, 12<<20+ChunkSize-1) // the last byte of a chunk only b backs
	type span struct{ off, n int64 }
	var got []span
	before := a.Snapshot()
	a.Diffs(b, func(off, n int64) bool {
		got = append(got, span{off, n})
		return true
	})
	want := []span{{101, 3}, {5 << 20, 1}, {12<<20 + ChunkSize - 1, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("diffs %v, want %v", got, want)
	}
	a.Diffs(a, func(off, n int64) bool {
		t.Fatalf("a device differs from itself at %d (+%d)", off, n)
		return false
	})
	if !sameDevice(before, a.Snapshot()) {
		t.Fatal("the compare changed a device's contents")
	}
}

func TestCrossChunkWrite(t *testing.T) {
	d := New(16 << 20)
	data := make([]byte, 3*ChunkSize/2)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(ChunkSize - 1000) // straddles a chunk boundary
	d.WriteAt(data, off)
	got := make([]byte, len(data))
	d.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk write corrupted data")
	}
}

func TestZeroRangeAndDiscard(t *testing.T) {
	d := New(16 << 20)
	data := make([]byte, ChunkSize*2)
	for i := range data {
		data[i] = 0xab
	}
	d.WriteAt(data, 0)
	d.ZeroRange(100, 50)
	got := make([]byte, 200)
	d.ReadAt(got, 0)
	for i := 0; i < 100; i++ {
		if got[i] != 0xab {
			t.Fatalf("byte %d clobbered", i)
		}
	}
	for i := 100; i < 150; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	before := d.HostBytes()
	d.DiscardRange(0, ChunkSize)
	if d.HostBytes() >= before {
		t.Fatal("discard did not release host memory")
	}
}

func TestCostCharging(t *testing.T) {
	d := New(16 << 20)
	ctx := sim.NewCtx(1, 0)
	small := make([]byte, 64)
	d.Write(ctx, small, 0)
	if ctx.Now() < d.Model().WriteLat64 {
		t.Fatalf("small write cost %d < latency %d", ctx.Now(), d.Model().WriteLat64)
	}
	if ctx.Counters.PMWriteBytes != 64 {
		t.Fatalf("PMWriteBytes = %d", ctx.Counters.PMWriteBytes)
	}
	t0 := ctx.Now()
	big := make([]byte, 1<<20)
	d.Write(ctx, big, 0)
	perByte := float64(ctx.Now()-t0) / float64(1<<20)
	if perByte < d.Model().CopyWriteNSPerByte {
		t.Fatalf("bulk write cost %f ns/B below copy cost", perByte)
	}
	// Reads should be cheaper per byte than writes (higher bandwidth).
	r0 := ctx.Now()
	d.Read(ctx, big, 0)
	readPerByte := float64(ctx.Now()-r0) / float64(1<<20)
	if readPerByte >= perByte {
		t.Fatalf("read %f ns/B not cheaper than write %f ns/B", readPerByte, perByte)
	}
}

func TestFlushFenceCosts(t *testing.T) {
	d := New(16 << 20)
	ctx := sim.NewCtx(1, 0)
	d.Flush(ctx, 0, 64)
	if ctx.Now() != d.Model().FlushLat {
		t.Fatalf("single-line flush = %d, want %d", ctx.Now(), d.Model().FlushLat)
	}
	before := ctx.Now()
	d.Fence(ctx)
	if ctx.Now()-before != d.Model().FenceLat {
		t.Fatal("fence cost wrong")
	}
}

func TestNUMAMapping(t *testing.T) {
	d := NewWithConfig(Config{Size: 64 << 20, Nodes: 2, CPUs: 8})
	if d.NodeOf(0) != 0 || d.NodeOf(d.Size()-1) != 1 {
		t.Fatal("NodeOf striping wrong")
	}
	if d.NodeOfCPU(0) != 0 || d.NodeOfCPU(7) != 1 {
		t.Fatal("NodeOfCPU mapping wrong")
	}
	// Remote access should cost more than local.
	local := sim.NewCtx(1, 0)
	remote := sim.NewCtx(2, 7)
	buf := make([]byte, 64)
	d.Read(local, buf, 0)
	d.Read(remote, buf, 0)
	if remote.Now() <= local.Now() {
		t.Fatalf("remote read %d not slower than local %d", remote.Now(), local.Now())
	}
}

func TestTraceEpochs(t *testing.T) {
	d := New(16 << 20)
	ctx := sim.NewCtx(1, 0)
	rec, err := d.Record(func() error {
		d.WriteAt([]byte{1}, 0)
		d.WriteAt([]byte{2}, 1)
		d.Fence(ctx)
		d.WriteAt([]byte{3}, 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := rec.Stores
	if len(trace) != 3 {
		t.Fatalf("trace has %d stores, want 3", len(trace))
	}
	if trace[0].Epoch != 0 || trace[1].Epoch != 0 || trace[2].Epoch != 1 {
		t.Fatalf("epochs = %d,%d,%d", trace[0].Epoch, trace[1].Epoch, trace[2].Epoch)
	}
	// Record leaves no observer behind: later stores reach nothing.
	if d.observer() != nil {
		t.Fatal("observer still installed after Record returned")
	}
}

func TestSnapshotRestoreApply(t *testing.T) {
	d := New(16 << 20)
	d.WriteAt([]byte("base"), 0)
	rec, err := d.Record(func() error {
		d.WriteAt([]byte("mod1"), 0)
		d.WriteAt([]byte("tail"), 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	img := rec.Base

	// Build a crash state with only the first store applied.
	crash := img.Snapshot()
	crash.apply(rec.Stores[:1])
	d.Restore(crash)

	got := make([]byte, 4)
	d.ReadAt(got, 0)
	if string(got) != "mod1" {
		t.Fatalf("applied store missing: %q", got)
	}
	d.ReadAt(got, 100)
	if string(got) != "\x00\x00\x00\x00" {
		t.Fatalf("unapplied store present: %q", got)
	}
	// Restoring the original snapshot gets back the base content.
	d.Restore(img)
	d.ReadAt(got, 0)
	if string(got) != "base" {
		t.Fatalf("snapshot restore: %q", got)
	}
}

// TestSnapshotIsADevice: a snapshot is a device of its own, shaped like its
// source, that reads back as the source did even where the pool handed it
// dirty chunks; it shares no bytes, poison or observer with the source;
// and Restore makes one device read as another, dropping the chunks the
// source does not back.
func TestSnapshotIsADevice(t *testing.T) {
	// Hand the pool chunks full of garbage, so the devices below are
	// built from dirty chunks.
	junk := New(16 << 20)
	for off := int64(0); off < junk.Size(); off += ChunkSize {
		junk.WriteAt(bytes.Repeat([]byte{0xEE}, ChunkSize), off)
	}
	junk.Release()

	model := DefaultModel()
	model.ReadLat64 *= 3
	src := NewWithConfig(Config{Size: 16 << 20, Nodes: 2, CPUs: 4, Model: &model})
	src.WriteAt([]byte("partial"), 3*ChunkSize+100) // one partly written page
	src.WriteAt(bytes.Repeat([]byte{7}, 3*initPage), 5*ChunkSize)
	src.Poison(5*ChunkSize, 1)
	obs := &logObserver{}
	src.SetObserver(obs)

	snap := src.Snapshot()
	defer snap.Release()
	if snap.Size() != src.Size() || snap.Nodes() != 2 || snap.NodeOfCPU(3) != 1 || *snap.Model() != model {
		t.Fatalf("snapshot shaped %d bytes, %d nodes, CPU 3 on node %d; want its source's", snap.Size(), snap.Nodes(), snap.NodeOfCPU(3))
	}
	if snap.HostBytes() != src.HostBytes() {
		t.Fatalf("snapshot backs %d bytes, its source %d", snap.HostBytes(), src.HostBytes())
	}
	for w := range src.initPages {
		if got, want := snap.initPages[w].Load(), src.initPages[w].Load(); got != want {
			t.Fatalf("init bitmap word %d = %x, want the source's %x", w, got, want)
		}
	}
	page, want := make([]byte, initPage), make([]byte, initPage)
	copy(want[100:], "partial")
	snap.ReadAt(page, 3*ChunkSize)
	if !bytes.Equal(page, want) {
		t.Fatal("the snapshot's partly written page does not read as written and zeros")
	}
	if !sameDevice(src, snap) {
		t.Fatal("the snapshot differs from its source")
	}
	if snap.observer() != nil || snap.PoisonedLines(0, snap.Size()) != nil {
		t.Fatal("the snapshot took over its source's observer or poison")
	}
	if err := snap.ReadAtChecked(page[:8], 5*ChunkSize); err != nil {
		t.Fatalf("a line poisoned on the source fails on the snapshot: %v", err)
	}

	// A store to either side stays on that side; only the source's
	// reaches the observer.
	src.WriteAt([]byte("SRC"), 3*ChunkSize+100)
	snap.WriteAt([]byte("SNAP"), 5*ChunkSize+8)
	snap.WriteAt([]byte("new chunk"), 6*ChunkSize)
	for _, c := range []struct {
		dev  *Device
		off  int64
		want string
	}{
		{src, 3*ChunkSize + 100, "SRCtial"},
		{snap, 3*ChunkSize + 100, "partial"},
		{src, 5*ChunkSize + 8, "\x07\x07\x07\x07"},
		{snap, 5*ChunkSize + 8, "SNAP"},
		{src, 6 * ChunkSize, "\x00\x00\x00\x00"},
	} {
		got := make([]byte, len(c.want))
		c.dev.ReadAt(got, c.off)
		if string(got) != c.want {
			t.Errorf("%q at %d, want %q", got, c.off, c.want)
		}
	}
	if len(obs.log) != 1 {
		t.Fatalf("observer saw %q, want the source's one store", obs.log)
	}

	// Restore from a device backing fewer chunks drops the extra ones.
	dst := New(16 << 20)
	defer dst.Release()
	dst.WriteAt(bytes.Repeat([]byte{9}, 100), 0)
	dst.WriteAt([]byte{9}, 7*ChunkSize+5)
	dst.WriteAt([]byte{9}, 3*ChunkSize+50)
	dst.Restore(src)
	if dst.HostBytes() != src.HostBytes() || !sameDevice(dst, src) {
		t.Fatalf("restored device backs %d bytes or differs from its source (%d bytes)", dst.HostBytes(), src.HostBytes())
	}
	dst.Restore(dst)
	if !sameDevice(dst, src) {
		t.Fatal("restoring a device from itself changed it")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(64 << 20)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(g)
			}
			base := int64(g) * (8 << 20)
			for i := 0; i < 100; i++ {
				d.WriteAt(buf, base+int64(i)*4096)
				d.ReadAt(buf, base+int64(i)*4096)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestHugepageAdviceSurvivesGC allocates at least 256 fresh chunks, each
// advised onto host hugepages, through devices that are written, read
// back and released, while another goroutine keeps the garbage collector
// running. The advice covers heap memory around each chunk; it must stay
// invisible to the collector, which aborts on a Go pointer into such a
// range.
func TestHugepageAdviceSurvivesGC(t *testing.T) {
	var fresh atomic.Int64
	orig := chunkPool.New
	chunkPool.New = func() any { fresh.Add(1); return orig() }
	defer func() { chunkPool.New = orig }()

	stop := make(chan struct{})
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); <-gcDone }()

	const chunks = 8
	want := make([]byte, 4096)
	got := make([]byte, 4096)
	for round := 0; fresh.Load() < 256; round++ {
		d := New(chunks * ChunkSize)
		for i := range want {
			want[i] = byte(round + i)
		}
		for c := int64(0); c < chunks; c++ {
			d.WriteAt(want, c*ChunkSize+ChunkSize/2)
		}
		for c := int64(0); c < chunks; c++ {
			d.ReadAt(got, c*ChunkSize+ChunkSize/2)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d chunk %d: read back differs", round, c)
			}
		}
		d.Release()
	}
}
