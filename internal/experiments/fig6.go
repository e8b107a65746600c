package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// fig6Patterns are Figure 6's access patterns, in the order each panel's
// runner measures them.
var fig6Patterns = []string{"seq-write", "rand-write", "seq-read", "rand-read"}

// Fig6 reproduces Figure 6: sequential/random read/write throughput on
// aged file systems, via mmap and via system calls (fsync every 10 ops),
// in three panels: memory-mapped access, POSIX with metadata consistency
// (weak) and POSIX with data consistency (strong). Expected shapes:
// WineFS leads the mmap panel by >2× over NOVA (it keeps hugepages when
// aged); on the syscall panels WineFS matches or beats the best system
// (ext4/xfs pay for costly fsync on appends; NOVA pays log maintenance on
// overwrites).
func Fig6(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	for _, panel := range []struct {
		name  string
		group []string
		run   func(Config, string) ([]float64, error)
	}{{"mmap", MmapGroup(), fig6Mmap}, {"weak", RelaxedGroup(), fig6Posix}, {"strong", StrictGroup(), fig6Posix}} {
		for _, name := range panel.group {
			gbs, err := panel.run(cfg, name)
			if err != nil {
				return fmt.Errorf("fig6 %s %s: %w", panel.name, name, err)
			}
			vals := map[string]float64{}
			for i, pattern := range fig6Patterns {
				vals["GBs."+pattern] = gbs[i]
			}
			rep.Point(labels("fig6", "Panel", panel.name, "FS", name), 0).Floats(vals)
		}
	}
	return nil
}

var fig6Cols = []bench.Col{
	{Head: "seq-write", Field: "GBs.seq-write", Fmt: "%.2f"},
	{Head: "rand-write", Field: "GBs.rand-write", Fmt: "%.2f"},
	{Head: "seq-read", Field: "GBs.seq-read", Fmt: "%.2f"},
	{Head: "rand-read", Field: "GBs.rand-read", Fmt: "%.2f"},
}

var fig6Tables = []bench.Table{
	{Title: "Figure 6(a): aged mmap throughput (GB/s)", Where: labels("fig6", "Panel", "mmap"),
		Rows: []string{"FS"}, RowHead: "fs", Cols: fig6Cols},
	{Title: "Figure 6(b): POSIX weak (metadata consistency) throughput (GB/s)", Where: labels("fig6", "Panel", "weak"),
		Rows: []string{"FS"}, RowHead: "fs", Cols: fig6Cols},
	{Title: "Figure 6(c): POSIX strong (data consistency) throughput (GB/s)", Where: labels("fig6", "Panel", "strong"),
		Rows: []string{"FS"}, RowHead: "fs", Cols: fig6Cols},
}

// phases runs each access back to back in virtual time, each on a fresh
// context (ids base, base+1, ...) that starts where the previous phase,
// or at first clock, ended, and returns each phase's bytes per virtual
// ns (GB/s).
func phases(clock int64, base int, access ...func(c *sim.Ctx) (int64, error)) ([]float64, error) {
	out := make([]float64, len(access))
	for i, a := range access {
		c := sim.NewCtx(base+i, 0)
		c.AdvanceTo(clock)
		start := c.Now()
		bytes, err := a(c)
		if err != nil {
			return nil, err
		}
		if c.Now() > start {
			out[i] = float64(bytes) / float64(c.Now()-start)
		}
		clock = c.Now()
	}
	return out, nil
}

// fig6Mmap ages the FS to 75%, maps a large file and measures memcpy
// throughput for the four patterns (§5.3's 50GiB file, scaled).
func fig6Mmap(cfg Config, name string) ([]float64, error) {
	fs, _, ctx, err := cfg.newFS(name)
	if err != nil {
		return nil, err
	}
	if name != "PMFS" { // §5.1: PMFS cannot be aged in reasonable time
		if _, err := cfg.age(ctx, fs, 0.75); err != nil {
			return nil, err
		}
	}
	size := cfg.scale(32<<20, 128<<20)
	f, err := fs.Create(ctx, "/fig6.mmap")
	if err != nil {
		return nil, err
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		return nil, err
	}
	m, err := vmm.Map(ctx, f, size, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true})
	if err != nil {
		return nil, err
	}
	const chunk = 16 << 10
	rng := sim.NewRand(cfg.Seed + 21)
	random := func(write bool) func(c *sim.Ctx) (int64, error) {
		return func(c *sim.Ctx) (int64, error) {
			for i := int64(0); i < size/chunk; i++ {
				if err := m.Touch(c, rng.Int63n(size/chunk)*chunk, chunk, write); err != nil {
					return 0, err
				}
			}
			return size, nil
		}
	}
	// The phases start after every setup booking on the device ports.
	return phases(ctx.Now(), 50,
		func(c *sim.Ctx) (int64, error) { return size, m.Touch(c, 0, size, true) },
		random(true),
		func(c *sim.Ctx) (int64, error) { return size, m.Touch(c, 0, size, false) },
		random(false))
}

// fig6Posix measures 4KiB syscall appends/overwrites/reads with an fsync
// every 10 operations (§5.3's system-call benchmark).
func fig6Posix(cfg Config, name string) ([]float64, error) {
	fs, _, ctx, err := cfg.newFS(name)
	if err != nil {
		return nil, err
	}
	size := cfg.scale(16<<20, 64<<20)
	f, err := fs.Create(ctx, "/fig6.posix")
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	rng := sim.NewRand(cfg.Seed + 22)
	blocks := size / 4096
	// each runs op on every block in turn, with an fsync after every
	// tenth when sync is set.
	each := func(sync bool, op func(c *sim.Ctx, i int64) error) func(c *sim.Ctx) (int64, error) {
		return func(c *sim.Ctx) (int64, error) {
			for i := int64(0); i < blocks; i++ {
				if err := op(c, i); err != nil {
					return 0, err
				}
				if sync && i%10 == 9 {
					if err := f.Fsync(c); err != nil {
						return 0, err
					}
				}
			}
			return size, nil
		}
	}
	return phases(ctx.Now(), 60,
		// seq write: appends filling the file.
		each(true, func(c *sim.Ctx, _ int64) error { _, err := f.Append(c, buf); return err }),
		// rand write: in-place 4KiB overwrites.
		each(true, func(c *sim.Ctx, _ int64) error { _, err := f.WriteAt(c, buf, rng.Int63n(blocks)*4096); return err }),
		each(false, func(c *sim.Ctx, i int64) error { _, err := f.ReadAt(c, buf, i*4096); return err }),
		each(false, func(c *sim.Ctx, _ int64) error { _, err := f.ReadAt(c, buf, rng.Int63n(blocks)*4096); return err }))
}
