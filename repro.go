// Package repro is the public facade of the WineFS reproduction: a
// simulation-complete implementation of "WineFS: a hugepage-aware file
// system for persistent memory that ages gracefully" (SOSP 2021), together
// with the six persistent-memory file systems the paper compares against,
// the aging and crash-testing methodology, the application analogues, and
// a runner for every figure and table in the paper's evaluation.
//
// Quick start:
//
//	dev := repro.NewDevice(1 << 30)                  // 1 GiB simulated PM
//	ctx := repro.NewThread(1, 0)                     // thread 1 on CPU 0
//	fs, err := repro.MkfsWineFS(ctx, dev, repro.WineFSOptions{CPUs: 8})
//	f, _ := fs.Create(ctx, "/data")
//	_ = f.Fallocate(ctx, 0, 8<<20)                   // aligned extents
//	cfg := vmm.Config{Mode: vmm.ModeShared, MapFullFile: true}
//	m, _ := vmm.Map(ctx, f, 8<<20, cfg)              // hugepage-mappable
//	_ = m.Write(ctx, []byte("hello"), 0)
//	fmt.Println(ctx.Counters.HugeFaults)             // 1
//
// Everything runs in deterministic virtual time; throughput and latency
// results come from the simulated clock, never from the host's.
package repro

import (
	"repro/internal/experiments"
	"repro/internal/fstest"
	"repro/internal/geriatrix"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// Re-exported core types.
type (
	// Device is a simulated persistent-memory device.
	Device = pmem.Device
	// Ctx is a simulated thread context carrying the virtual clock and
	// performance counters.
	Ctx = sim.Ctx
	// FS is the file-system interface implemented by WineFS and all
	// baselines.
	FS = vfs.FS
	// File is an open file handle.
	File = vfs.File
	// WineFSOptions configures Mkfs/Mount of WineFS instances.
	WineFSOptions = winefs.Options
	// AgingConfig configures the Geriatrix ager.
	AgingConfig = geriatrix.Config
	// ExperimentConfig sizes the paper-evaluation runners.
	ExperimentConfig = experiments.Config
)

// Consistency modes (paper §3.3).
const (
	Strict  = vfs.Strict
	Relaxed = vfs.Relaxed
)

// NewDevice creates a simulated PM device of the given byte size with the
// Optane-calibrated default cost model.
func NewDevice(size int64) *Device { return pmem.New(size) }

// NewDeviceNUMA creates a device spread over `nodes` NUMA nodes addressed
// by `cpus` logical CPUs.
func NewDeviceNUMA(size int64, nodes, cpus int) *Device {
	return pmem.NewWithConfig(pmem.Config{Size: size, Nodes: nodes, CPUs: cpus})
}

// NewThread creates a simulated thread pinned to a logical CPU.
func NewThread(id, cpu int) *Ctx { return sim.NewCtx(id, cpu) }

// MkfsWineFS formats dev as WineFS and mounts it.
func MkfsWineFS(ctx *Ctx, dev *Device, opts WineFSOptions) (*winefs.FS, error) {
	return winefs.Mkfs(ctx, dev, opts)
}

// MountWineFS mounts an existing WineFS, running crash recovery if the
// image was not cleanly unmounted.
func MountWineFS(ctx *Ctx, dev *Device, opts WineFSOptions) (*winefs.FS, error) {
	return winefs.Mount(ctx, dev, opts)
}

// CheckWineFS runs the offline consistency checker on a WineFS image.
func CheckWineFS(dev *Device) *winefs.CheckReport { return winefs.Check(dev) }

// FileSystems lists the names of every available file-system
// implementation.
func FileSystems() []string {
	var names []string
	for _, m := range fstest.All(8) {
		names = append(names, m.Name)
	}
	return names
}

// NewFS formats dev with the named file system ("WineFS", "ext4-DAX",
// "xfs-DAX", "PMFS", "NOVA", "NOVA-relaxed", "SplitFS", "Strata",
// "WineFS-relaxed").
func NewFS(ctx *Ctx, dev *Device, name string) (FS, error) {
	m, ok := fstest.ByName(name, 8)
	if !ok {
		return nil, errUnknownFS(name)
	}
	return m.Make(ctx, dev)
}

type errUnknownFS string

func (e errUnknownFS) Error() string { return "repro: unknown file system " + string(e) }

// Age runs the Geriatrix aging protocol (§5.1) against a mounted file
// system and returns the run statistics.
func Age(ctx *Ctx, fs FS, cfg AgingConfig) (geriatrix.Stats, error) {
	return geriatrix.New(fs, cfg).Run(ctx)
}
