package workloads

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// CachedMix is the cache-effectiveness variant of ServerMix: each client
// populates a private working set, keeps the files open, and then re-reads
// them for several rounds before rewriting them in place. The re-read
// phase is reported separately — through internal/pagecache it is served
// from DRAM after the populate fills the cache, which is exactly the
// ≥5x-cheaper-per-read signal the winebench -cache sweep gates on. The
// workload runs against any vfs.FS, so the same loop measures the cached
// and uncached configurations byte-for-byte identically.

// CachedMixConfig sizes one client's run.
type CachedMixConfig struct {
	// Files is the working-set size.
	Files int
	Seed  uint64
}

const (
	// CachedMixFileKB is each file's size in KiB: two pages.
	CachedMixFileKB = 8
	// CachedMixRounds is how many times the working set is re-read.
	CachedMixRounds = 3
)

// CachedMixResult reports one client's run, with the re-read phase broken
// out so per-read virtual cost can be compared across configurations.
type CachedMixResult struct {
	Ops          int64 // completed file-system operations
	Reads        int64 // re-read phase ReadAt calls
	ReadBytes    int64 // re-read phase bytes returned
	ReadNS       int64 // re-read phase virtual time
	PopulateNS   int64 // create+append phase virtual time
	RewriteNS    int64 // in-place rewrite + fsync + close phase virtual time
	BytesWritten int64 // logical bytes written (appends + rewrites)
}

// cachedMixPattern fills p with the oracle byte stream for (client, file,
// generation); every read verifies against it exactly.
func cachedMixPattern(p []byte, client, file, gen int) {
	for j := range p {
		p[j] = byte(client*151 + file*29 + gen*101 + j*11 + 3)
	}
}

// CachedMixClient runs one client's populate / re-read / rewrite loop on
// fs. Clients must use distinct ids; they may share an fs and run
// concurrently, each with its own ctx.
func CachedMixClient(ctx *sim.Ctx, fs vfs.FS, client int, cfg CachedMixConfig) (CachedMixResult, error) {
	var res CachedMixResult
	const size = CachedMixFileKB << 10

	if err := fs.Mkdir(ctx, "/cmix"); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("cachedmix: mkdir /cmix: %w", err)
	}
	res.Ops++
	dir := fmt.Sprintf("/cmix/c%03d", client)
	if err := fs.Mkdir(ctx, dir); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("cachedmix: mkdir %s: %w", dir, err)
	}
	res.Ops++

	// Populate: create and append every file; handles stay open — the hot
	// working set.
	files := make([]vfs.File, cfg.Files)
	t0 := ctx.Now()
	buf := make([]byte, size)
	for i := range files {
		name := fmt.Sprintf("%s/f%04d", dir, i)
		f, err := fs.Create(ctx, name)
		if err != nil {
			return res, fmt.Errorf("cachedmix: create %s: %w", name, err)
		}
		cachedMixPattern(buf, client, i, 0)
		if _, err := f.Append(ctx, buf); err != nil {
			return res, fmt.Errorf("cachedmix: append %s: %w", name, err)
		}
		res.Ops += 2
		res.BytesWritten += int64(size)
		files[i] = f
	}
	res.PopulateNS = ctx.Now() - t0

	// Re-read: the measured phase. Every byte is verified against the
	// oracle, so a cache serving stale or corrupt data fails loudly.
	want := make([]byte, size)
	rbuf := make([]byte, size)
	t0 = ctx.Now()
	for r := 0; r < CachedMixRounds; r++ {
		for i, f := range files {
			cachedMixPattern(want, client, i, 0)
			n, err := f.ReadAt(ctx, rbuf, 0)
			if err != nil {
				return res, fmt.Errorf("cachedmix: read %d round %d: %w", i, r, err)
			}
			if n != size || !bytes.Equal(rbuf[:n], want) {
				return res, fmt.Errorf("cachedmix: corrupt read of file %d round %d: %d/%d bytes", i, r, n, size)
			}
			res.Ops++
			res.Reads++
			res.ReadBytes += int64(n)
		}
	}
	res.ReadNS = ctx.Now() - t0

	// Rewrite in place (write-back through a cache), verify the new
	// generation reads back, then fsync and close everything.
	t0 = ctx.Now()
	for i, f := range files {
		cachedMixPattern(buf, client, i, 1)
		if _, err := f.WriteAt(ctx, buf, 0); err != nil {
			return res, fmt.Errorf("cachedmix: rewrite %d: %w", i, err)
		}
		res.Ops++
		res.BytesWritten += int64(size)
		cachedMixPattern(want, client, i, 1)
		n, err := f.ReadAt(ctx, rbuf, 0)
		if err != nil {
			return res, fmt.Errorf("cachedmix: reread %d: %w", i, err)
		}
		if n != size || !bytes.Equal(rbuf[:n], want) {
			return res, fmt.Errorf("cachedmix: corrupt read after rewrite of file %d", i)
		}
		res.Ops++
		if err := f.Fsync(ctx); err != nil {
			return res, fmt.Errorf("cachedmix: fsync %d: %w", i, err)
		}
		res.Ops++
		if err := f.Close(ctx); err != nil {
			return res, fmt.Errorf("cachedmix: close %d: %w", i, err)
		}
		res.Ops++
	}
	// A final stat pass over the closed files checks size coherence
	// through the attribute path.
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("%s/f%04d", dir, i)
		fi, err := fs.Stat(ctx, name)
		if err != nil {
			return res, fmt.Errorf("cachedmix: stat %s: %w", name, err)
		}
		if fi.Size != int64(size) {
			return res, fmt.Errorf("cachedmix: stat %s: size %d, want %d", name, fi.Size, size)
		}
		res.Ops++
	}
	res.RewriteNS = ctx.Now() - t0
	return res, nil
}
