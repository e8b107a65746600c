package winefs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

func newMmapTestFS(t *testing.T) (*sim.Ctx, *FS) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	fs, err := Mkfs(ctx, pmem.New(256<<20), Options{CPUs: 4, Mode: vfs.Strict})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fs
}

func writeFileAt(t *testing.T, ctx *sim.Ctx, f vfs.File, pattern byte, off, n int64) {
	t.Helper()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = pattern
	}
	if _, err := f.WriteAt(ctx, buf, off); err != nil {
		t.Fatal(err)
	}
}

// TestMmapTruncateFault shrinks a file under an active mapping: reads past
// the new EOF must fail with the typed fault error (SIGBUS), reads below
// it must return fresh translations — never the invalidated extent.
func TestMmapTruncateFault(t *testing.T) {
	ctx, fs := newMmapTestFS(t)
	f, err := fs.Create(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	writeFileAt(t, ctx, f, 0xab, 0, 4<<20)

	m, err := vmm.Map(ctx, f, 4<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	// Fault the whole file in, then shrink it to one block.
	buf := make([]byte, 64)
	if err := m.Read(ctx, buf, 3<<20); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(ctx, BlockSize); err != nil {
		t.Fatal(err)
	}

	// Access beyond the new EOF: typed fault, not stale data.
	if err := m.Read(ctx, buf, 3<<20); !errors.Is(err, vfs.ErrMapFault) {
		t.Fatalf("read past truncated EOF: err = %v, want ErrMapFault", err)
	}
	if err := m.Write(ctx, buf, 2<<20); !errors.Is(err, vfs.ErrMapFault) {
		t.Fatalf("write past truncated EOF: err = %v, want ErrMapFault", err)
	}
	// The surviving block refaults and still carries its data.
	if err := m.Read(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xab}, 64)) {
		t.Fatalf("surviving block read %x, want 0xab repeated", buf[:8])
	}
}

// TestMmapTruncateReclaim checks the invalidate-before-free ordering:
// after a shrink, blocks the mapping used to translate to are free for
// reallocation, and the old mapping cannot read the new owner's data.
func TestMmapTruncateReclaim(t *testing.T) {
	ctx, fs := newMmapTestFS(t)
	f, err := fs.Create(ctx, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	writeFileAt(t, ctx, f, 0x11, 0, 2<<20)
	m, err := vmm.Map(ctx, f, 2<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	probe := make([]byte, 64)
	if err := m.Read(ctx, probe, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Reuse the space under a different file with different contents.
	g, err := fs.Create(ctx, "/thief")
	if err != nil {
		t.Fatal(err)
	}
	writeFileAt(t, ctx, g, 0x22, 0, 2<<20)

	if err := m.Read(ctx, probe, 1<<20); !errors.Is(err, vfs.ErrMapFault) {
		t.Fatalf("read of truncated-away page: err = %v, want ErrMapFault", err)
	}
}

// TestMmapUnlinkFault unlinks a mapped file: after the final close the
// inode is destroyed, its blocks are freed, and the mapping's faults must
// fail rather than resolve through freed extents.
func TestMmapUnlinkFault(t *testing.T) {
	ctx, fs := newMmapTestFS(t)
	f, err := fs.Create(ctx, "/gone")
	if err != nil {
		t.Fatal(err)
	}
	writeFileAt(t, ctx, f, 0x33, 0, 2<<20)
	m, err := vmm.Map(ctx, f, 2<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := m.Read(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(ctx, "/gone"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Every translation died with the inode; a refault cannot succeed.
	if err := m.Read(ctx, buf, 0); err == nil {
		t.Fatal("read through mapping of destroyed inode succeeded")
	}
}

// TestMmapPunchHole punches a hole under an active mapping: the punched
// range must read back as zeroes through the mapping (fresh faults, not
// the invalidated translations) and the edges must keep their data.
func TestMmapPunchHole(t *testing.T) {
	ctx, fs := newMmapTestFS(t)
	f, err := fs.Create(ctx, "/holey")
	if err != nil {
		t.Fatal(err)
	}
	writeFileAt(t, ctx, f, 0x44, 0, 4<<20)
	m, err := vmm.Map(ctx, f, 4<<20, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)
	buf := make([]byte, 64)
	if err := m.Read(ctx, buf, 1<<20); err != nil {
		t.Fatal(err)
	}

	hp, ok := f.(vfs.HolePuncher)
	if !ok {
		t.Fatal("winefs File does not implement vfs.HolePuncher")
	}
	// Punch [1MiB-1KiB, 3MiB+1KiB): unaligned edges exercise the partial
	// block zeroing, the middle drops whole blocks.
	off := int64(1<<20) - 1024
	n := int64(2<<20) + 2048
	if err := hp.PunchHole(ctx, off, n); err != nil {
		t.Fatal(err)
	}

	if err := m.Read(ctx, buf, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatalf("punched range reads %x through mapping, want zeroes", buf[:8])
	}
	if err := m.Read(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x44}, 64)) {
		t.Fatalf("data before hole reads %x, want 0x44 repeated", buf[:8])
	}
	if err := m.Read(ctx, buf, 3<<20+4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x44}, 64)) {
		t.Fatalf("data after hole reads %x, want 0x44 repeated", buf[:8])
	}
}

// TestMmapRace8Threads is the `make mmap-race` workload: eight threads
// hammer one shared mapping with reads, writes and msyncs while truncate
// and re-extend churn the file underneath. Run under -race it checks the
// locking of the fault path, the dirty tracking and the invalidate paths;
// every access must either succeed or fail with the typed fault error.
func TestMmapRace8Threads(t *testing.T) {
	ctx, fs := newMmapTestFS(t)
	f, err := fs.Create(ctx, "/race")
	if err != nil {
		t.Fatal(err)
	}
	const size = 8 << 20
	writeFileAt(t, ctx, f, 0x55, 0, size)
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(ctx)

	if err := sim.RunThreads(sim.NewThreads(8, 100, 4, 0), func(th int, tctx *sim.Ctx) error {
		rng := sim.NewRand(uint64(th) * 7717)
		buf := make([]byte, 256)
		for i := 0; i < 400; i++ {
			off := rng.Int63n(size - int64(len(buf)))
			var err error
			switch {
			case th == 7 && i%50 == 25:
				// One thread churns the file size.
				if err := f.Truncate(tctx, size/2); err != nil {
					return err
				}
				if err := f.Truncate(tctx, size); err != nil {
					return err
				}
				continue
			case i%10 == 3:
				err = m.Write(tctx, buf, off)
			case i%25 == 7:
				err = m.Msync(tctx, 0, -1)
			default:
				err = m.Read(tctx, buf, off)
			}
			if err != nil && !errors.Is(err, vfs.ErrMapFault) {
				return fmt.Errorf("thread %d op %d: %v", th, i, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if _, total := m.FaultedChunks(); total == 0 {
		t.Fatal("race run faulted nothing")
	}
	if err := m.Msync(ctx, 0, -1); err != nil {
		t.Fatal(err)
	}
}
