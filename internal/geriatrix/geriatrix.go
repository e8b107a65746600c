// Package geriatrix reimplements the aging methodology the paper uses
// (Kadekodi et al., ATC'18): drive a file system through far more
// create/delete churn than its capacity, following a realistic file-size
// profile, until it reaches a target utilisation in a naturally fragmented
// state. Fragmentation is never injected — it emerges from each file
// system's own allocation policy, which is exactly what Figures 1, 3 and 7
// measure.
//
// Two profiles are provided, matching §5.1 and §4:
//
//   - Agrawal: the widely cited desktop profile — a mix of small (<2MiB)
//     and large (>=2MiB) files with 56% of capacity in large files;
//   - WangHPC: Wang's HPC-site profile with a heavier large-file tail,
//     which fragments contiguity-first allocators even faster.
//
// Sizes are scaled: the paper ages a 500GiB partition with 165TiB of
// writes; we age GiB-scale partitions with proportional churn.
package geriatrix

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Profile is a file-size distribution.
type Profile struct {
	Name string
	// Sample draws one file size in bytes.
	Sample func(r *sim.Rand) int64
}

// Agrawal returns the paper's default profile: 56% of bytes in large
// (>=2MiB) files, the rest in small files drawn from a skewed distribution.
func Agrawal() Profile {
	return Profile{
		Name: "agrawal",
		Sample: func(r *sim.Rand) int64 {
			// ~3.1% of files are large; with these magnitudes large files
			// carry ≈56% of total bytes (validated in tests).
			if r.Float64() < 0.031 {
				// Large: 2–10 MiB.
				return (2 + r.Int63n(9)) << 20
			}
			// Small: log-uniform 2KiB–512KiB.
			exp := 11 + r.Intn(9) // 2^11 .. 2^19
			base := int64(1) << exp
			return base + r.Int63n(base)
		},
	}
}

// WangHPC returns the HPC profile from §4: fewer, much larger files plus
// many tiny ones, stressing alignment preservation harder.
func WangHPC() Profile {
	return Profile{
		Name: "wang-hpc",
		Sample: func(r *sim.Rand) int64 {
			v := r.Float64()
			switch {
			case v < 0.10:
				// Checkpoint-style large files: 4–32 MiB.
				return (4 + r.Int63n(29)) << 20
			case v < 0.35:
				// Mid-size: 64KiB–2MiB.
				return (64 + r.Int63n(1985)) << 10
			default:
				// Tiny metadata/config files.
				return (1 + r.Int63n(32)) << 10
			}
		},
	}
}

// Config controls an aging run.
type Config struct {
	// TargetUtil is the utilisation to age to, in [0, 1).
	TargetUtil float64
	// ChurnFactor is how many multiples of the partition capacity to write
	// as create/delete churn after the fill phase (the paper's 165TiB on
	// 500GiB ≈ 330×; scaled runs default to 2–4×).
	ChurnFactor float64
	// Profile is the file-size distribution (default Agrawal).
	Profile Profile
	// Seed fixes the random stream.
	Seed uint64
}

// agedDirs is the number of directories files are spread over.
const agedDirs = 16

// Stats reports what an aging run did.
type Stats struct {
	Created      int64
	Deleted      int64
	BytesWritten int64
	FinalUtil    float64
	LiveFiles    int
}

// Ager ages one file system instance and tracks its live file set so
// utilisation can be driven up and down.
type Ager struct {
	fs   vfs.FS
	cfg  Config
	rng  *sim.Rand
	next int64
	live []agedFile
	st   Stats
}

type agedFile struct {
	path string
	size int64
}

// New prepares an ager for fs.
func New(fs vfs.FS, cfg Config) *Ager {
	if cfg.Profile.Sample == nil {
		cfg.Profile = Agrawal()
	}
	if cfg.ChurnFactor == 0 {
		cfg.ChurnFactor = 2
	}
	return &Ager{fs: fs, cfg: cfg, rng: sim.NewRand(cfg.Seed + 0x9E3779B9)}
}

func (a *Ager) util(ctx *sim.Ctx) float64 {
	st := a.fs.StatFS(ctx)
	if st.TotalBlocks == 0 {
		return 1
	}
	return 1 - float64(st.FreeBlocks)/float64(st.TotalBlocks)
}

// createOne makes one profile-sized file via fallocate (aging exercises
// the allocator; file contents are irrelevant).
func (a *Ager) createOne(ctx *sim.Ctx) error {
	size := a.cfg.Profile.Sample(a.rng)
	dir := fmt.Sprintf("/aged%02d", a.next%agedDirs)
	path := fmt.Sprintf("%s/f%08d", dir, a.next)
	a.next++
	f, err := a.fs.Create(ctx, path)
	if err != nil {
		return err
	}
	if err := f.Fallocate(ctx, 0, size); err != nil {
		a.fs.Unlink(ctx, path)
		return err
	}
	f.Close(ctx)
	a.live = append(a.live, agedFile{path, size})
	a.st.Created++
	a.st.BytesWritten += size
	return nil
}

// deleteOne removes a uniformly random live file.
func (a *Ager) deleteOne(ctx *sim.Ctx) error {
	if len(a.live) == 0 {
		return nil
	}
	i := a.rng.Intn(len(a.live))
	f := a.live[i]
	a.live[i] = a.live[len(a.live)-1]
	a.live = a.live[:len(a.live)-1]
	if err := a.fs.Unlink(ctx, f.path); err != nil {
		return err
	}
	a.st.Deleted++
	return nil
}

// Run executes the full aging protocol: make directories, fill to the
// target utilisation, then churn creates+deletes (keeping utilisation
// around the target) until ChurnFactor × capacity has been written.
func (a *Ager) Run(ctx *sim.Ctx) (Stats, error) {
	for d := 0; d < agedDirs; d++ {
		if err := a.fs.Mkdir(ctx, fmt.Sprintf("/aged%02d", d)); err != nil && err != vfs.ErrExist {
			return a.st, err
		}
	}
	// Fill phase.
	for a.util(ctx) < a.cfg.TargetUtil {
		if err := a.createOne(ctx); err != nil {
			if err == vfs.ErrNoSpace {
				break
			}
			return a.st, err
		}
	}
	// Churn phase.
	st := a.fs.StatFS(ctx)
	capacity := st.TotalBlocks * 4096
	budget := int64(a.cfg.ChurnFactor * float64(capacity))
	start := a.st.BytesWritten
	for a.st.BytesWritten-start < budget {
		if a.util(ctx) > a.cfg.TargetUtil {
			if len(a.live) == 0 {
				// Nothing of ours left to delete (the utilisation is held
				// up by files this ager doesn't own): churn cannot proceed.
				break
			}
			if err := a.deleteOne(ctx); err != nil {
				return a.st, err
			}
			continue
		}
		if err := a.createOne(ctx); err != nil {
			if err == vfs.ErrNoSpace {
				// Delete a couple of files and retry.
				for k := 0; k < 2 && len(a.live) > 0; k++ {
					if derr := a.deleteOne(ctx); derr != nil {
						return a.st, derr
					}
				}
				continue
			}
			return a.st, err
		}
	}
	a.st.FinalUtil = a.util(ctx)
	a.st.LiveFiles = len(a.live)
	return a.st, nil
}

// RaiseUtil ages further to a higher utilisation with light churn —
// Figure 1 and Figure 3 sweep utilisation upward through this.
func (a *Ager) RaiseUtil(ctx *sim.Ctx, target float64) error {
	for a.util(ctx) < target {
		if err := a.createOne(ctx); err != nil {
			if err == vfs.ErrNoSpace {
				return nil
			}
			return err
		}
		// A delete every few creates keeps churning the free space.
		if a.st.Created%5 == 0 && len(a.live) > 3 {
			if err := a.deleteOne(ctx); err != nil {
				return err
			}
			// Replace the deleted capacity immediately.
			if err := a.createOne(ctx); err != nil && err != vfs.ErrNoSpace {
				return err
			}
		}
	}
	return nil
}
