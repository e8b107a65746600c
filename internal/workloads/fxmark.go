package workloads

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// fxmark-style scalability microbenchmarks: each case stresses one sharing
// level of the concurrency architecture, so throughput vs thread count
// shows which layer serialises. The cases mirror fxmark's (ATC'16)
// taxonomy on the operations WineFS cares about:
//
//	shared-read     N threads read random blocks of one shared file.
//	                Shared inode locks — must scale to bandwidth.
//	disjoint-write  N threads overwrite disjoint 2MiB regions of one
//	                preallocated shared file. Byte-range locks — must
//	                scale to bandwidth.
//	overlap-write   N threads overwrite the same 4KiB of one file.
//	                Conflicting ranges — must serialise.
//	private-append  each thread appends to its own file. Per-CPU
//	                journals and allocation groups — must scale.
//	meta-contended  N threads create+unlink in one shared directory.
//	                Exclusive parent-inode lock — serialises by design.
//
// Every thread must run with a distinct (id, CPU) ctx; with one thread per
// CPU group the work performed — ops, bytes, journal commits — is exactly
// reproducible, which is what lets BENCH_scaling.json gate on exact work
// counters.

// FxmarkCase names one scalability microbenchmark.
type FxmarkCase string

const (
	FxSharedRead    FxmarkCase = "shared-read"
	FxDisjointWrite FxmarkCase = "disjoint-write"
	FxOverlapWrite  FxmarkCase = "overlap-write"
	FxPrivateAppend FxmarkCase = "private-append"
	FxMetaContended FxmarkCase = "meta-contended"
)

// FxmarkCases lists every case in report order.
func FxmarkCases() []FxmarkCase {
	return []FxmarkCase{FxSharedRead, FxDisjointWrite, FxOverlapWrite, FxPrivateAppend, FxMetaContended}
}

const (
	// fxIO is the I/O unit.
	fxIO = 4096
	// fxRegion is each thread's slice of the shared file. 2MiB keeps the
	// preallocation on the aligned-extent path, so strict-mode overwrites
	// take the data-journal (in-place, range-locked) fast path rather
	// than copy-on-write.
	fxRegion = int64(2 << 20)
)

// FxmarkConfig sizes one thread's loop.
type FxmarkConfig struct {
	// Ops is the number of loop iterations per thread.
	Ops  int
	Seed uint64
}

// FxmarkThreadResult reports one thread's run.
type FxmarkThreadResult struct {
	// Ops counts completed file-system operations (syscalls).
	Ops int64
	// Bytes counts payload bytes read or written.
	Bytes int64
	// VirtualNS is the thread's virtual time from first to last op.
	VirtualNS int64
}

// fxSlice returns the byte stream the shared file holds at absolute offset
// off, length n, so any reader can verify any block without knowing who
// wrote it. The slice aliases a shared read-only table: callers hand it to
// WriteAt (which copies) or compare against it, never mutate it.
//
// The defining formula is byte(x*131>>4 + x + 7) with x = off+j. Its value
// depends only on x mod 4096: write x = q*4096 + r, then x*131 splits as
// q*4096*131 + r*131 with the first term divisible by 16, so the >>4
// distributes and contributes q*256*131 ≡ 0 (mod 256); likewise x ≡ r
// (mod 256). The whole stream is therefore one 4KiB table tiled with
// period 4096, and any window of it is a subslice of fxStream — the
// pattern costs no fill at all, where per-byte evaluation was 4096
// multiplies per block and a table-tiling copy still doubled every
// write's memmove. (The argument uses floor shifts on non-negative x;
// offsets are never negative.)
func fxSlice(off, n int64) []byte {
	r := off & 4095
	return fxStream[r : r+n]
}

// fxStream is the pattern table tiled to one region plus one period, so
// fxSlice can serve any window up to fxRegion long at any alignment.
var fxStream = func() []byte {
	s := make([]byte, fxRegion+4096)
	for i := range s {
		x := int64(i)
		s[i] = byte(x*131>>4 + x + 7)
	}
	return s
}()

// FxmarkSetup prepares the namespace for one case, single-threaded: the
// shared file is preallocated and patterned region by region, the shared
// directory pre-grown so the measured loops never allocate dirent blocks
// (keeping run-phase work counters independent of thread interleaving).
func FxmarkSetup(ctx *sim.Ctx, fs vfs.FS, c FxmarkCase, threads int) error {
	if err := fs.Mkdir(ctx, "/fx"); err != nil && err != vfs.ErrExist {
		return fmt.Errorf("fxmark setup: mkdir /fx: %w", err)
	}
	switch c {
	case FxSharedRead, FxDisjointWrite, FxOverlapWrite:
		f, err := fs.Create(ctx, "/fx/shared")
		if err != nil {
			return fmt.Errorf("fxmark setup: create shared: %w", err)
		}
		size := int64(threads) * fxRegion
		if err := f.Fallocate(ctx, 0, size); err != nil {
			return fmt.Errorf("fxmark setup: fallocate: %w", err)
		}
		for off := int64(0); off < size; off += fxRegion {
			if _, err := f.WriteAt(ctx, fxSlice(off, fxRegion), off); err != nil {
				return fmt.Errorf("fxmark setup: pattern at %d: %w", off, err)
			}
		}
		if err := f.Close(ctx); err != nil {
			return err
		}
	case FxMetaContended:
		if err := fs.Mkdir(ctx, "/fx/meta"); err != nil && err != vfs.ErrExist {
			return fmt.Errorf("fxmark setup: mkdir /fx/meta: %w", err)
		}
		// Seed the directory's free dirent slots so the measured
		// create/unlink churn (at most `threads` live entries) never grows
		// the directory mid-run.
		for i := 0; i < 2*threads; i++ {
			name := fmt.Sprintf("/fx/meta/seed%04d", i)
			f, err := fs.Create(ctx, name)
			if err != nil {
				return fmt.Errorf("fxmark setup: seed create: %w", err)
			}
			if err := f.Close(ctx); err != nil {
				return err
			}
		}
		for i := 0; i < 2*threads; i++ {
			if err := fs.Unlink(ctx, fmt.Sprintf("/fx/meta/seed%04d", i)); err != nil {
				return fmt.Errorf("fxmark setup: seed unlink: %w", err)
			}
		}
	case FxPrivateAppend:
		// Threads create their own files.
	}
	return nil
}

// FxmarkThread runs one thread's loop. Threads for a run share fs and run
// concurrently, each with its own ctx.
func FxmarkThread(ctx *sim.Ctx, fs vfs.FS, thread int, c FxmarkCase, threads int, cfg FxmarkConfig) (FxmarkThreadResult, error) {
	var res FxmarkThreadResult
	start := ctx.Now()
	rng := sim.NewRand(cfg.Seed + uint64(thread)*2654435761 + 11)

	switch c {
	case FxSharedRead:
		f, err := fs.Open(ctx, "/fx/shared")
		if err != nil {
			return res, fmt.Errorf("fxmark %s: open: %w", c, err)
		}
		res.Ops++
		size := int64(threads) * fxRegion
		buf := make([]byte, fxIO)
		for i := 0; i < cfg.Ops; i++ {
			off := rng.Int63n(size/fxIO) * fxIO
			n, err := f.ReadAt(ctx, buf, off)
			if err != nil || n != fxIO {
				return res, fmt.Errorf("fxmark %s: read at %d: %d bytes, %w", c, off, n, err)
			}
			res.Ops++
			res.Bytes += int64(n)
			if !bytes.Equal(buf, fxSlice(off, fxIO)) {
				return res, fmt.Errorf("fxmark %s: corrupt read at %d", c, off)
			}
		}
		res.Ops++ // close
		if err := f.Close(ctx); err != nil {
			return res, err
		}

	case FxDisjointWrite, FxOverlapWrite:
		f, err := fs.Open(ctx, "/fx/shared")
		if err != nil {
			return res, fmt.Errorf("fxmark %s: open: %w", c, err)
		}
		res.Ops++
		base := int64(thread) * fxRegion
		if c == FxOverlapWrite {
			base = 0 // every thread hammers the same 4KiB
		}
		rbuf := make([]byte, fxIO)
		for i := 0; i < cfg.Ops; i++ {
			off := base
			if c == FxDisjointWrite {
				off = base + int64(i)*fxIO%fxRegion
			}
			buf := fxSlice(off, fxIO)
			n, err := f.WriteAt(ctx, buf, off)
			if err != nil || n != fxIO {
				return res, fmt.Errorf("fxmark %s: write at %d: %d bytes, %w", c, off, n, err)
			}
			res.Ops++
			res.Bytes += int64(n)
			if c == FxDisjointWrite && i%16 == 15 {
				// Read back our own region: nobody else writes it, so the
				// pattern must round-trip even mid-run.
				if n, err := f.ReadAt(ctx, rbuf, off); err != nil || n != fxIO {
					return res, fmt.Errorf("fxmark %s: verify read at %d: %w", c, off, err)
				}
				res.Ops++
				res.Bytes += fxIO
				if !bytes.Equal(rbuf, buf) {
					return res, fmt.Errorf("fxmark %s: corrupt readback at %d", c, off)
				}
			}
		}
		res.Ops++
		if err := f.Close(ctx); err != nil {
			return res, err
		}

	case FxPrivateAppend:
		name := fmt.Sprintf("/fx/p%03d", thread)
		f, err := fs.Create(ctx, name)
		if err != nil {
			return res, fmt.Errorf("fxmark %s: create: %w", c, err)
		}
		res.Ops++
		for i := 0; i < cfg.Ops; i++ {
			buf := fxSlice(int64(thread)<<32+int64(i)*fxIO, fxIO)
			n, err := f.Append(ctx, buf)
			if err != nil || n != fxIO {
				return res, fmt.Errorf("fxmark %s: append %d: %w", c, i, err)
			}
			res.Ops++
			res.Bytes += int64(n)
			if i%8 == 7 {
				if err := f.Fsync(ctx); err != nil {
					return res, fmt.Errorf("fxmark %s: fsync: %w", c, err)
				}
				res.Ops++
			}
		}
		res.Ops++
		if err := f.Close(ctx); err != nil {
			return res, err
		}

	case FxMetaContended:
		for i := 0; i < cfg.Ops; i++ {
			name := fmt.Sprintf("/fx/meta/t%02d_%05d", thread, i)
			f, err := fs.Create(ctx, name)
			if err != nil {
				return res, fmt.Errorf("fxmark %s: create %s: %w", c, name, err)
			}
			res.Ops++
			if err := f.Close(ctx); err != nil {
				return res, err
			}
			res.Ops++
			if err := fs.Unlink(ctx, name); err != nil {
				return res, fmt.Errorf("fxmark %s: unlink %s: %w", c, name, err)
			}
			res.Ops++
		}

	default:
		return res, fmt.Errorf("fxmark: unknown case %q", c)
	}

	res.VirtualNS = ctx.Now() - start
	return res, nil
}
