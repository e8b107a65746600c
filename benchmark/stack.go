package main

// stack.go is the benchmark's whole view of the program: every import
// of repro/internal/... in this package is in this file, and the rest
// of the package reaches the program only through the names below. The
// list is the frozen surface README.md promises; a change that must
// break one of these entry points ships a benchmark change first.

import (
	"repro/internal/alloc"
	"repro/internal/fileserver"
	"repro/internal/geriatrix"
	"repro/internal/pagecache"
	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
	"repro/internal/vmm"
	"repro/internal/winefs"
)

type (
	simCtx     = sim.Ctx
	simRand    = sim.Rand
	simPacer   = sim.Pacer
	counters   = perf.Counters
	pmDevice   = pmem.Device
	slowDevice = tier.SlowDevice
	vfsFS      = vfs.FS
	vfsFile    = vfs.File
	wineFS     = winefs.FS
	fileServer = fileserver.Server
	pipeListen = fileserver.PipeListener
	rpcClient  = fileserver.Client
	pageCache  = pagecache.Cache
	cacheStats = pagecache.Stats
	ageStats   = geriatrix.Stats
)

const (
	blockSize = winefs.BlockSize
	hugePage  = 2 << 20
)

var (
	errNoSpace  = vfs.ErrNoSpace
	errMapFault = vfs.ErrMapFault
)

func newCtx(thread, cpu int) *simCtx  { return sim.NewCtx(thread, cpu) }
func newRand(seed uint64) *simRand    { return sim.NewRand(seed) }
func newPacer(b float64) *simPacer    { return sim.NewPacer(b) }
func newDevice(size int64) *pmDevice  { return pmem.New(size) }
func newSlow(size int64) *slowDevice  { return tier.NewSlow(tier.DefaultSlowConfig(size)) }
func alignedFreePct(fs vfsFS) float64 { return 100 * alloc.AlignedFreeFraction(fs.FreeExtents()) }

// simCPUs is the simulated CPU count every image is made with: one per
// host core the contract gives the benchmark.
const simCPUs = 2

// mkfsStrict formats dev as a strict-mode WineFS, tiered when slow is
// not nil.
func mkfsStrict(ctx *simCtx, dev *pmDevice, slow *slowDevice) (*wineFS, error) {
	opts := winefs.Options{CPUs: simCPUs, Mode: vfs.Strict}
	if slow != nil {
		opts.Tier = &winefs.TierOptions{Slow: slow}
	}
	return winefs.Mkfs(ctx, dev, opts)
}

// ageAgrawal runs Geriatrix with the paper's default profile.
func ageAgrawal(ctx *simCtx, fs vfsFS, util, churn float64, seed uint64) (ageStats, error) {
	return geriatrix.New(fs, geriatrix.Config{
		TargetUtil: util, ChurnFactor: churn, Profile: geriatrix.Agrawal(), Seed: seed,
	}).Run(ctx)
}

// mapShared maps the first length bytes of f MAP_SHARED with explicit
// msync. budget 0 maps the whole file in one window; otherwise the
// mapping slides a window of that many bytes.
func mapShared(ctx *simCtx, f vfsFile, length, budget int64) (*vmm.Mapping, error) {
	return vmm.Map(ctx, f, length, vmm.Config{
		Mode: vmm.ModeShared, Sync: vmm.SyncLazy,
		MapFullFile: budget == 0, AddressBudget: budget,
	})
}

// serve starts a file server over fs whose session clocks begin at
// baseNS, and returns it with the listener clients dial and a function
// that shuts it down and waits for Serve to return.
func serve(fs vfsFS, baseNS int64) (*fileServer, *pipeListen, func() error) {
	srv := fileserver.New(fs, fileserver.Config{CPUs: simCPUs, BaseNS: baseNS})
	pl := fileserver.NewPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(pl) }()
	return srv, pl, func() error {
		srv.Shutdown()
		return <-done
	}
}

func dialPipe(pl *pipeListen) (*rpcClient, error) {
	conn, err := pl.Dial()
	if err != nil {
		return nil, err
	}
	return fileserver.Dial(conn)
}

// cachePages is each client's page-cache capacity in 4KiB pages (the
// package's own default, pinned here): the hot set of srv_cached is
// sized against it.
const cachePages = 4096

func newPageCache(inner vfsFS) *pageCache {
	return pagecache.New(inner, pagecache.Config{MaxPages: cachePages})
}

func defragPass(fs *wineFS, ctx *simCtx, p *simPacer, maxChunks int) (winefs.DefragStats, error) {
	return fs.DefragPass(ctx, winefs.DefragOptions{Pacer: p, MaxChunks: maxChunks})
}

func tierPass(fs *wineFS, ctx *simCtx, p *simPacer, maxBlocks int64) (winefs.TierPassStats, error) {
	return fs.TierPass(ctx, winefs.TierPassOptions{Pacer: p, MaxMigrateBlocks: maxBlocks})
}

// checkImage runs the offline checker over an unmounted image.
func checkImage(dev *pmDevice, slow *slowDevice) []string {
	var slowBlocks int64
	if slow != nil {
		slowBlocks = slow.Size() / blockSize
	}
	return winefs.CheckTiered(dev, slowBlocks).Errors
}

// Probe surface: public functions of the layers below winefs and vmm,
// which no decorator can reach, timed in a loop by probes.go.
func newLockTable() *vfs.LockTable { return vfs.NewLockTable() }
func newResource() *sim.Resource   { return &sim.Resource{} }
