package workloads

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// HotScan is the scan-resistance workload of the winebench -cache sweep: a
// client keeps re-reading a hot set half the size of its cache while it
// scans, once, a cold file four times the size of that cache. The scan is
// cut into slices of one cache each and the hot set is re-read after every
// slice, so under plain LRU replacement each slice pushes the whole hot set
// out and every re-read goes to the server, while a cache that admits a
// page to its protected list only on a second touch serves every one of
// them. Every byte read is verified, like CachedMix.

const (
	// HotScanCachePages is the capacity in 4KiB pages of the cache a
	// client runs through: small, so that a scan of four caches per client
	// stays a few MiB. The hot set is half of it, the cold scan
	// hotScanSlices times it.
	HotScanCachePages = 256
	// hotScanSlices is the length of the cold scan in caches.
	hotScanSlices = 4
)

// HotScanResult reports one client's run. Reads are one page each, so with
// a page cache under the client a read is one hit or one miss.
type HotScanResult struct {
	Ops       int64 // completed file-system operations
	HotReads  int64 // hot-set page reads made between scan slices
	HotHits   int64 // of those, the reads ctx's cache-hit counter saw served from a cache
	ScanReads int64 // cold pages read, each once
	ReadBytes int64 // bytes returned by hot and scan reads, warm-up included
}

// HotScanClient runs one client's populate / warm / scan-and-re-read loop
// on fs. Clients must use distinct ids; they may share an fs and run
// concurrently, each with its own ctx.
func HotScanClient(ctx *sim.Ctx, fs vfs.FS, client int) (HotScanResult, error) {
	const pageSize = 4096
	var res HotScanResult
	hot, slice := HotScanCachePages/2, HotScanCachePages

	if err := fs.Mkdir(ctx, "/hscan"); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("hotscan: mkdir /hscan: %w", err)
	}
	dir := fmt.Sprintf("/hscan/c%03d", client)
	if err := fs.Mkdir(ctx, dir); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("hotscan: mkdir %s: %w", dir, err)
	}
	res.Ops += 2

	// Populate: file 0 is the hot set, file 1 the cold one; page p of file
	// f holds cachedMixPattern(client, f, p).
	buf, want := make([]byte, pageSize), make([]byte, pageSize)
	var files [2]vfs.File
	for f, pages := range [2]int{hot, hotScanSlices * slice} {
		name := fmt.Sprintf("%s/f%d", dir, f)
		h, err := fs.Create(ctx, name)
		if err != nil {
			return res, fmt.Errorf("hotscan: create %s: %w", name, err)
		}
		for p := 0; p < pages; p++ {
			cachedMixPattern(buf, client, f, p)
			if _, err := h.Append(ctx, buf); err != nil {
				return res, fmt.Errorf("hotscan: append %s: %w", name, err)
			}
		}
		res.Ops += 1 + int64(pages)
		files[f] = h
	}
	read := func(f, p int) error {
		cachedMixPattern(want, client, f, p)
		n, err := files[f].ReadAt(ctx, buf, int64(p)*pageSize)
		if err != nil {
			return fmt.Errorf("hotscan: read file %d page %d: %w", f, p, err)
		}
		if n != pageSize || !bytes.Equal(buf, want) {
			return fmt.Errorf("hotscan: corrupt read of file %d page %d: %d/%d bytes", f, p, n, pageSize)
		}
		res.Ops++
		res.ReadBytes += int64(n)
		return nil
	}
	readHot := func() error {
		for p := 0; p < hot; p++ {
			if err := read(0, p); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm: two passes, so every hot page has been touched twice.
	for pass := 0; pass < 2; pass++ {
		if err := readHot(); err != nil {
			return res, err
		}
	}
	// The measured phase: one slice of the scan, then the hot set again.
	for s := 0; s < hotScanSlices; s++ {
		for p := s * slice; p < (s+1)*slice; p++ {
			if err := read(1, p); err != nil {
				return res, err
			}
			res.ScanReads++
		}
		hits := ctx.Counters.CacheHits
		if err := readHot(); err != nil {
			return res, err
		}
		res.HotReads += int64(hot)
		res.HotHits += ctx.Counters.CacheHits - hits
	}
	for f, h := range files {
		if err := h.Close(ctx); err != nil {
			return res, fmt.Errorf("hotscan: close file %d: %w", f, err)
		}
		res.Ops++
	}
	return res, nil
}
