package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vmm"
)

// Fig6Result holds throughput (GB/s) per file system per access pattern,
// for the three panels of Figure 6: memory-mapped access, POSIX with
// metadata consistency (weak), POSIX with data consistency (strong).
type Fig6Result struct {
	Patterns []string // seq-write, rand-write, seq-read, rand-read
	Mmap     map[string][]float64
	Weak     map[string][]float64
	Strong   map[string][]float64
}

// Fig6 reproduces Figure 6: sequential/random read/write throughput on
// aged file systems, via mmap and via system calls (fsync every 10 ops).
// Expected shapes: WineFS leads the mmap panel by >2× over NOVA (it keeps
// hugepages when aged); on the syscall panels WineFS matches or beats the
// best system (ext4/xfs pay for costly fsync on appends; NOVA pays log
// maintenance on overwrites).
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.Defaults()
	res := &Fig6Result{
		Patterns: []string{"seq-write", "rand-write", "seq-read", "rand-read"},
		Mmap:     map[string][]float64{},
		Weak:     map[string][]float64{},
		Strong:   map[string][]float64{},
	}
	for _, name := range MmapGroup() {
		vals, err := fig6Mmap(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("fig6 mmap %s: %w", name, err)
		}
		res.Mmap[name] = vals
	}
	for _, name := range RelaxedGroup() {
		vals, err := fig6Posix(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("fig6 weak %s: %w", name, err)
		}
		res.Weak[name] = vals
	}
	for _, name := range StrictGroup() {
		vals, err := fig6Posix(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("fig6 strong %s: %w", name, err)
		}
		res.Strong[name] = vals
	}
	return res, nil
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
	out := make([]float64, 4)
	const chunk = 16 << 10
	rng := sim.NewRand(cfg.Seed + 21)

	// Phases run back to back in virtual time, each starting after the
	// previous phase's (and the setup's) device-port bookings.
	clock := ctx.Now()
	measure := func(idx int, access func(c *sim.Ctx) (int64, error)) error {
		c := sim.NewCtx(50+idx, 0)
		c.AdvanceTo(clock)
		start := c.Now()
		bytes, err := access(c)
		if err != nil {
			return err
		}
		if c.Now() > start {
			out[idx] = float64(bytes) / float64(c.Now()-start)
		}
		clock = c.Now()
		return nil
	}
	// seq write
	if err := measure(0, func(c *sim.Ctx) (int64, error) {
		return size, m.Touch(c, 0, size, true)
	}); err != nil {
		return nil, err
	}
	// rand write (16KiB chunks)
	if err := measure(1, func(c *sim.Ctx) (int64, error) {
		n := size / chunk
		for i := int64(0); i < n; i++ {
			off := rng.Int63n(size/chunk) * chunk
			if err := m.Touch(c, off, chunk, true); err != nil {
				return 0, err
			}
		}
		return size, nil
	}); err != nil {
		return nil, err
	}
	// seq read
	if err := measure(2, func(c *sim.Ctx) (int64, error) {
		return size, m.Touch(c, 0, size, false)
	}); err != nil {
		return nil, err
	}
	// rand read
	if err := measure(3, func(c *sim.Ctx) (int64, error) {
		n := size / chunk
		for i := int64(0); i < n; i++ {
			off := rng.Int63n(size/chunk) * chunk
			if err := m.Touch(c, off, chunk, false); err != nil {
				return 0, err
			}
		}
		return size, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
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
	out := make([]float64, 4)
	buf := make([]byte, 4096)
	rng := sim.NewRand(cfg.Seed + 22)
	blocks := size / 4096

	// seq write: appends filling the file.
	c := sim.NewCtx(60, 0)
	c.AdvanceTo(ctx.Now())
	phaseStart := c.Now()
	for i := int64(0); i < blocks; i++ {
		if _, err := f.Append(c, buf); err != nil {
			return nil, err
		}
		if i%10 == 9 {
			if err := f.Fsync(c); err != nil {
				return nil, err
			}
		}
	}
	out[0] = float64(size) / float64(c.Now()-phaseStart)

	// rand write: in-place 4KiB overwrites.
	prev := c.Now()
	c = sim.NewCtx(61, 0)
	c.AdvanceTo(prev)
	phaseStart = c.Now()
	for i := int64(0); i < blocks; i++ {
		off := rng.Int63n(blocks) * 4096
		if _, err := f.WriteAt(c, buf, off); err != nil {
			return nil, err
		}
		if i%10 == 9 {
			if err := f.Fsync(c); err != nil {
				return nil, err
			}
		}
	}
	out[1] = float64(size) / float64(c.Now()-phaseStart)

	// seq read.
	prev = c.Now()
	c = sim.NewCtx(62, 0)
	c.AdvanceTo(prev)
	phaseStart = c.Now()
	for i := int64(0); i < blocks; i++ {
		if _, err := f.ReadAt(c, buf, i*4096); err != nil {
			return nil, err
		}
	}
	out[2] = float64(size) / float64(c.Now()-phaseStart)

	// rand read.
	prev = c.Now()
	c = sim.NewCtx(63, 0)
	c.AdvanceTo(prev)
	phaseStart = c.Now()
	for i := int64(0); i < blocks; i++ {
		if _, err := f.ReadAt(c, buf, rng.Int63n(blocks)*4096); err != nil {
			return nil, err
		}
	}
	out[3] = float64(size) / float64(c.Now()-phaseStart)
	return out, nil
}
