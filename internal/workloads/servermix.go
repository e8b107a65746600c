package workloads

import (
	"bytes"
	"fmt"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ServerMix is the multi-client serving workload: each client runs a mixed
// create / append / fsync / read-back / rename / unlink loop in a private
// directory, verifying every read byte-for-byte against the deterministic
// pattern it wrote. It drives any vfs.FS — in particular a
// fileserver.Client, which is how the serving-throughput baseline
// (winebench -server), the winefsd smoke test and the fileserver tests all
// exercise a remote mount with an exact data oracle.

// ServerMixConfig sizes one client's loop.
type ServerMixConfig struct {
	// Ops is the number of loop iterations (each issues several syscalls).
	Ops  int
	Seed uint64
}

// serverMixMeanFileKB is the mean size of a file the loop writes.
const serverMixMeanFileKB = 16

// ServerMixResult reports one client's run.
type ServerMixResult struct {
	// Ops counts completed file-system operations (syscalls), not loop
	// iterations.
	Ops int64
	// VirtualNS is the client's virtual time from first to last op.
	VirtualNS int64
	// Lat holds per-operation virtual latencies.
	Lat perf.Histogram
}

// serverMixPattern fills p with the byte stream file (client, i) must
// contain; reads compare against it exactly.
func serverMixPattern(p []byte, client, i int) {
	for j := range p {
		p[j] = byte(client*131 + i*31 + j*7 + 1)
	}
}

// ServerMixClient runs one client's mixed loop on fs. Every client must
// use a distinct id; clients may share one fs (or one fileserver.Client)
// and may run concurrently, each with its own ctx.
func ServerMixClient(ctx *sim.Ctx, fs vfs.FS, client int, cfg ServerMixConfig) (ServerMixResult, error) {
	var res ServerMixResult
	start := ctx.Now()
	step := func(err error) error {
		res.Ops++
		return err
	}
	timed := func(f func() error) error {
		t0 := ctx.Now()
		err := f()
		res.Lat.Record(ctx.Now() - t0)
		return step(err)
	}

	if err := fs.Mkdir(ctx, "/mix"); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("servermix: mkdir /mix: %w", err)
	}
	dir := fmt.Sprintf("/mix/c%03d", client)
	if err := fs.Mkdir(ctx, dir); err != nil && err != vfs.ErrExist {
		return res, fmt.Errorf("servermix: mkdir %s: %w", dir, err)
	}
	rng := sim.NewRand(cfg.Seed + uint64(client)*2654435761 + 17)

	for i := 0; i < cfg.Ops; i++ {
		name := fmt.Sprintf("%s/f%05d", dir, i)
		size := serverMixMeanFileKB<<9 + rng.Intn(serverMixMeanFileKB<<10)
		buf := make([]byte, size)
		serverMixPattern(buf, client, i)

		var f vfs.File
		if err := timed(func() (err error) {
			f, err = fs.Create(ctx, name)
			return err
		}); err != nil {
			return res, fmt.Errorf("servermix: create %s: %w", name, err)
		}
		if err := timed(func() (err error) {
			_, err = f.Append(ctx, buf)
			return err
		}); err != nil {
			return res, fmt.Errorf("servermix: append %s: %w", name, err)
		}
		if i%3 == 0 {
			if err := timed(func() error { return f.Fsync(ctx) }); err != nil {
				return res, fmt.Errorf("servermix: fsync %s: %w", name, err)
			}
		}
		rbuf := make([]byte, size)
		var n int
		if err := timed(func() (err error) {
			n, err = f.ReadAt(ctx, rbuf, 0)
			return err
		}); err != nil {
			return res, fmt.Errorf("servermix: read %s: %w", name, err)
		}
		if n != size || !bytes.Equal(rbuf[:n], buf) {
			return res, fmt.Errorf("servermix: corrupt read of %s: %d/%d bytes", name, n, size)
		}
		if err := timed(func() error { return f.Close(ctx) }); err != nil {
			return res, fmt.Errorf("servermix: close %s: %w", name, err)
		}

		cur := name
		if i%4 == 3 {
			renamed := name + ".r"
			if err := timed(func() error { return fs.Rename(ctx, name, renamed) }); err != nil {
				return res, fmt.Errorf("servermix: rename %s: %w", name, err)
			}
			cur = renamed
			// Re-open through the new name and spot-check the content
			// survived the rename.
			var g vfs.File
			if err := timed(func() (err error) {
				g, err = fs.Open(ctx, renamed)
				return err
			}); err != nil {
				return res, fmt.Errorf("servermix: open %s: %w", renamed, err)
			}
			if err := timed(func() (err error) {
				n, err = g.ReadAt(ctx, rbuf, 0)
				return err
			}); err != nil {
				return res, fmt.Errorf("servermix: reread %s: %w", renamed, err)
			}
			if n != size || !bytes.Equal(rbuf[:n], buf) {
				return res, fmt.Errorf("servermix: corrupt read after rename of %s", renamed)
			}
			if err := timed(func() error { return g.Close(ctx) }); err != nil {
				return res, fmt.Errorf("servermix: close %s: %w", renamed, err)
			}
		}
		if i%8 == 7 {
			if err := timed(func() error { return fs.Unlink(ctx, cur) }); err != nil {
				return res, fmt.Errorf("servermix: unlink %s: %w", cur, err)
			}
		} else if err := timed(func() (err error) {
			_, err = fs.Stat(ctx, cur)
			return err
		}); err != nil {
			return res, fmt.Errorf("servermix: stat %s: %w", cur, err)
		}
	}
	res.VirtualNS = ctx.Now() - start
	return res, nil
}
