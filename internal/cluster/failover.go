package cluster

import (
	"errors"
	"fmt"
	"time"

	"sync"

	"repro/internal/alloc"
	"repro/internal/fileserver"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// FailoverClient is a vfs.FS over a replicated cluster: it wraps a
// fileserver.Client and, when the transport dies with ErrServerGone (or
// the server drains with ErrShutdown), transparently redials "the current
// primary", re-opens every tracked file by path, re-establishes cache
// leases, and retries the interrupted operation with per-op adjudication
// of whether the first attempt already landed.
//
// Epoch fencing: the client remembers the highest server epoch it has
// seen and refuses to adopt a connection announcing a lower one — a stale
// primary resurfacing after failover cannot capture clients.
//
// Adjudication is at-least-once with single-writer files (the ServerMix
// contract): Create returns the existing file untruncated, deletes and
// renames map not-found on retry to success, and Append compares the
// file's server-side size against the pre-append size to decide landed /
// partial / lost.
type FailoverClient struct {
	dial func() (fileserver.Conn, error)

	name string
	mode vfs.ConsistencyMode

	// fmu single-flights recovery; ops snapshot (cli, gen) and call
	// recover(gen) on transport death — whoever wins redials, everyone
	// else observes the bumped gen and just retries.
	fmu   sync.Mutex
	cli   *fileserver.Client
	gen   uint64
	epoch uint64

	revokeMu sync.Mutex
	onRevoke func(ino uint64)

	mu        sync.Mutex
	files     map[*failoverFile]struct{}
	failovers int64
	closed    bool
}

// The recovery loop's bounds.
const (
	// failoverMaxAttempts bounds redials per recovery (covering the
	// failover window while a successor is promoted).
	failoverMaxAttempts = 400
	// failoverRetryDelay is the wall pause between redials.
	failoverRetryDelay = 10 * time.Millisecond
	// failoverOpRetries bounds recover-and-retry cycles per operation.
	failoverOpRetries = 3
)

var _ vfs.FS = (*FailoverClient)(nil)

// DialFailover connects to the cluster's current primary.
func DialFailover(dial func() (fileserver.Conn, error)) (*FailoverClient, error) {
	c := &FailoverClient{
		dial:  dial,
		files: make(map[*failoverFile]struct{}),
	}
	cli, epoch, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	c.cli = cli
	c.epoch = epoch
	c.name = cli.Name()
	c.mode = cli.Mode()
	cli.SetRevokeHandler(c.forwardRevoke)
	return c, nil
}

func (c *FailoverClient) dialOnce() (*fileserver.Client, uint64, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, 0, err
	}
	cli, err := fileserver.Dial(conn)
	if err != nil {
		return nil, 0, err
	}
	return cli, cli.ServerEpoch(), nil
}

// Failovers reports how many recoveries this client performed.
func (c *FailoverClient) Failovers() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Epoch reports the highest primary epoch seen.
func (c *FailoverClient) Epoch() uint64 {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.epoch
}

// SetRevokeHandler implements pagecache.RevokeSource.
func (c *FailoverClient) SetRevokeHandler(h func(ino uint64)) {
	c.revokeMu.Lock()
	c.onRevoke = h
	c.revokeMu.Unlock()
}

func (c *FailoverClient) forwardRevoke(ino uint64) {
	c.revokeMu.Lock()
	h := c.onRevoke
	c.revokeMu.Unlock()
	if h != nil {
		h(ino)
	}
}

// current snapshots the active client and its generation.
func (c *FailoverClient) current() (*fileserver.Client, uint64) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.cli, c.gen
}

// gone reports whether err is a lost-primary error worth a recovery.
func gone(err error) bool {
	return errors.Is(err, fileserver.ErrServerGone) || errors.Is(err, fileserver.ErrShutdown)
}

// recover redials the cluster until a primary with a current-or-newer
// epoch answers, then re-opens tracked files and re-establishes leases.
// genSeen is the generation the caller's failed attempt used; if another
// caller already recovered past it, recover returns immediately.
func (c *FailoverClient) recover(ctx *sim.Ctx, genSeen uint64) error {
	c.fmu.Lock()
	if c.gen != genSeen {
		c.fmu.Unlock()
		return nil
	}
	var lostLeases []uint64
	var err error
	defer func() {
		c.fmu.Unlock()
		// Fire lease-loss notifications outside fmu: the page cache's
		// handler flushes through this very client and may need recovery
		// itself.
		for _, ino := range lostLeases {
			c.forwardRevoke(ino)
		}
	}()

	old := c.cli
	if old != nil {
		old.Close()
	}
	var cli *fileserver.Client
	for attempt := 0; attempt < failoverMaxAttempts; attempt++ {
		var epoch uint64
		cli, epoch, err = c.dialOnce()
		if err != nil {
			time.Sleep(failoverRetryDelay)
			continue
		}
		if epoch < c.epoch {
			// A stale primary answered — fence it and keep looking.
			cli.Close()
			cli = nil
			time.Sleep(failoverRetryDelay)
			continue
		}
		c.epoch = epoch
		break
	}
	if cli == nil {
		if err == nil {
			err = fileserver.ErrServerGone
		}
		return fmt.Errorf("cluster: failover exhausted %d attempts: %w", failoverMaxAttempts, err)
	}
	c.cli = cli
	c.gen++
	cli.SetRevokeHandler(c.forwardRevoke)
	c.mu.Lock()
	c.failovers++
	files := make([]*failoverFile, 0, len(c.files))
	for f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	for _, f := range files {
		if ino, lost := f.reestablish(ctx, cli, c.gen); lost {
			lostLeases = append(lostLeases, ino)
		}
	}
	return nil
}

// run executes op with recover-and-retry. retried is invoked (instead of
// op) on attempts after a recovery, letting callers adjudicate effects of
// the possibly-landed first attempt; nil means "same as op".
func (c *FailoverClient) run(ctx *sim.Ctx, op func(cli *fileserver.Client) error, retried func(cli *fileserver.Client) error) error {
	if retried == nil {
		retried = op
	}
	cli, gen := c.current()
	err := op(cli)
	for i := 0; gone(err) && i < failoverOpRetries; i++ {
		if rerr := c.recover(ctx, gen); rerr != nil {
			return rerr
		}
		cli, gen = c.current()
		err = retried(cli)
	}
	return err
}

// --- vfs.FS ----------------------------------------------------------------

// Name implements vfs.FS.
func (c *FailoverClient) Name() string { return c.name }

// Mode implements vfs.FS.
func (c *FailoverClient) Mode() vfs.ConsistencyMode { return c.mode }

func (c *FailoverClient) openLike(ctx *sim.Ctx, path string, create bool) (vfs.File, error) {
	var inner vfs.File
	err := c.run(ctx, func(cli *fileserver.Client) (err error) {
		// Create on an existing file returns it untruncated (WineFS
		// semantics), so a retried create adjudicates itself.
		if create {
			inner, err = cli.Create(ctx, path)
		} else {
			inner, err = cli.Open(ctx, path)
		}
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	_, gen := c.current()
	f := &failoverFile{c: c, path: path, f: inner, gen: gen}
	c.mu.Lock()
	c.files[f] = struct{}{}
	c.mu.Unlock()
	return f, nil
}

// Create implements vfs.FS.
func (c *FailoverClient) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, path, true)
}

// Open implements vfs.FS.
func (c *FailoverClient) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	return c.openLike(ctx, path, false)
}

// Mkdir implements vfs.FS. A retried attempt maps ErrExist to success:
// the first attempt may have landed before the crash.
func (c *FailoverClient) Mkdir(ctx *sim.Ctx, path string) error {
	return c.run(ctx,
		func(cli *fileserver.Client) error { return cli.Mkdir(ctx, path) },
		func(cli *fileserver.Client) error {
			err := cli.Mkdir(ctx, path)
			if errors.Is(err, vfs.ErrExist) {
				return nil
			}
			return err
		})
}

// Unlink implements vfs.FS; retried not-found means the first attempt
// landed.
func (c *FailoverClient) Unlink(ctx *sim.Ctx, path string) error {
	return c.run(ctx,
		func(cli *fileserver.Client) error { return cli.Unlink(ctx, path) },
		func(cli *fileserver.Client) error {
			err := cli.Unlink(ctx, path)
			if errors.Is(err, vfs.ErrNotExist) {
				return nil
			}
			return err
		})
}

// Rmdir implements vfs.FS.
func (c *FailoverClient) Rmdir(ctx *sim.Ctx, path string) error {
	return c.run(ctx,
		func(cli *fileserver.Client) error { return cli.Rmdir(ctx, path) },
		func(cli *fileserver.Client) error {
			err := cli.Rmdir(ctx, path)
			if errors.Is(err, vfs.ErrNotExist) {
				return nil
			}
			return err
		})
}

// Rename implements vfs.FS; a retried not-found is success iff the new
// name exists (the first attempt moved it).
func (c *FailoverClient) Rename(ctx *sim.Ctx, oldPath, newPath string) error {
	return c.run(ctx,
		func(cli *fileserver.Client) error { return cli.Rename(ctx, oldPath, newPath) },
		func(cli *fileserver.Client) error {
			err := cli.Rename(ctx, oldPath, newPath)
			if errors.Is(err, vfs.ErrNotExist) {
				if _, serr := cli.Stat(ctx, newPath); serr == nil {
					return nil
				}
			}
			return err
		})
}

// Stat implements vfs.FS.
func (c *FailoverClient) Stat(ctx *sim.Ctx, path string) (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	err := c.run(ctx, func(cli *fileserver.Client) (err error) {
		fi, err = cli.Stat(ctx, path)
		return err
	}, nil)
	return fi, err
}

// ReadDir implements vfs.FS.
func (c *FailoverClient) ReadDir(ctx *sim.Ctx, path string) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	err := c.run(ctx, func(cli *fileserver.Client) (err error) {
		ents, err = cli.ReadDir(ctx, path)
		return err
	}, nil)
	return ents, err
}

// StatFS implements vfs.FS.
func (c *FailoverClient) StatFS(ctx *sim.Ctx) vfs.StatFS {
	cli, _ := c.current()
	return cli.StatFS(ctx)
}

// FreeExtents implements vfs.FS.
func (c *FailoverClient) FreeExtents() []alloc.Extent { return nil }

// Unmount implements vfs.FS.
func (c *FailoverClient) Unmount(ctx *sim.Ctx) error {
	c.mu.Lock()
	c.closed = true
	c.files = make(map[*failoverFile]struct{})
	c.mu.Unlock()
	cli, _ := c.current()
	return cli.Unmount(ctx)
}

func (c *FailoverClient) unregister(f *failoverFile) {
	c.mu.Lock()
	delete(c.files, f)
	c.mu.Unlock()
}

// --- failoverFile ----------------------------------------------------------

// failoverFile wraps one remote handle with by-path re-opening. mu guards
// the fields only — never held across an RPC.
type failoverFile struct {
	c    *FailoverClient
	path string

	mu    sync.Mutex
	f     vfs.File
	gen   uint64
	lease uint8 // 0 none, 1 read, 2 write — re-established on recovery
	stale bool  // re-open failed (e.g. unlinked meanwhile)
}

var _ vfs.File = (*failoverFile)(nil)

// reestablish re-opens the file on the new primary and re-acquires its
// lease. Returns (ino, true) when a held lease could not be re-established
// — the page cache must be told to drop its pages.
func (f *failoverFile) reestablish(ctx *sim.Ctx, cli *fileserver.Client, gen uint64) (uint64, bool) {
	f.mu.Lock()
	lease := f.lease
	prevIno := uint64(0)
	if f.f != nil {
		prevIno = f.f.Ino()
	}
	f.mu.Unlock()

	nf, err := cli.Open(ctx, f.path)
	if err != nil {
		f.mu.Lock()
		f.stale = true
		f.gen = gen
		f.lease = 0
		f.mu.Unlock()
		return prevIno, lease != 0
	}
	lost := false
	if lease != 0 {
		granted, lerr := leaseOf(nf).Lease(ctx, lease == 2)
		if lerr != nil || !granted {
			lost = true
			lease = 0
		}
	}
	f.mu.Lock()
	f.f = nf
	f.gen = gen
	f.stale = false
	f.lease = lease
	f.mu.Unlock()
	return nf.Ino(), lost
}

func leaseOf(f vfs.File) interface {
	Lease(ctx *sim.Ctx, write bool) (bool, error)
	Unlease(ctx *sim.Ctx) error
} {
	l, _ := f.(interface {
		Lease(ctx *sim.Ctx, write bool) (bool, error)
		Unlease(ctx *sim.Ctx) error
	})
	return l
}

// snapshot returns the current inner file and generation, or an error for
// a stale handle.
func (f *failoverFile) snapshot() (vfs.File, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stale || f.f == nil {
		return nil, f.gen, vfs.ErrNotExist
	}
	return f.f, f.gen, nil
}

// run executes op on the inner file with recover-and-retry; retried (nil
// = op) adjudicates post-recovery.
func (f *failoverFile) run(ctx *sim.Ctx, op func(vfs.File) error, retried func(vfs.File) error) error {
	if retried == nil {
		retried = op
	}
	inner, gen, err := f.snapshot()
	if err != nil {
		return err
	}
	err = op(inner)
	for i := 0; gone(err) && i < failoverOpRetries; i++ {
		if rerr := f.c.recover(ctx, gen); rerr != nil {
			return rerr
		}
		inner, gen, err = f.snapshot()
		if err != nil {
			return err
		}
		err = retried(inner)
	}
	return err
}

// Ino implements vfs.File. Inode numbers are stable across failover: a
// replica's image is byte-identical, so the same path resolves to the
// same ino on the successor.
func (f *failoverFile) Ino() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return 0
	}
	return f.f.Ino()
}

// Size implements vfs.File.
func (f *failoverFile) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return 0
	}
	return f.f.Size()
}

// ReadAt implements vfs.File (idempotent: plain retry).
func (f *failoverFile) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	var n int
	err := f.run(ctx, func(inner vfs.File) (err error) {
		n, err = inner.ReadAt(ctx, p, off)
		return err
	}, nil)
	return n, err
}

// WriteAt implements vfs.File (idempotent: same bytes, same offset).
func (f *failoverFile) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	var n int
	err := f.run(ctx, func(inner vfs.File) (err error) {
		n, err = inner.WriteAt(ctx, p, off)
		return err
	}, nil)
	return n, err
}

// Append implements vfs.File with size adjudication: the pre-append size
// tells a retried attempt whether the bytes landed (size advanced by
// len(p)), were lost (size unchanged — re-append), or landed partially
// (append the tail). Sound for single-writer files, which is the
// workloads' contract.
func (f *failoverFile) Append(ctx *sim.Ctx, p []byte) (int, error) {
	inner, gen, err := f.snapshot()
	if err != nil {
		return 0, err
	}
	base := inner.Size()
	var n int
	n, err = inner.Append(ctx, p)
	for i := 0; gone(err) && i < failoverOpRetries; i++ {
		if rerr := f.c.recover(ctx, gen); rerr != nil {
			return 0, rerr
		}
		inner, gen, err = f.snapshot()
		if err != nil {
			return 0, err
		}
		cur := inner.Size() // refreshed by the re-open
		switch {
		case cur >= base+int64(len(p)):
			return len(p), nil
		case cur <= base:
			n, err = inner.Append(ctx, p)
		default:
			var m int
			m, err = inner.Append(ctx, p[cur-base:])
			n = int(cur-base) + m
		}
	}
	return n, err
}

// Truncate implements vfs.File (idempotent).
func (f *failoverFile) Truncate(ctx *sim.Ctx, size int64) error {
	return f.run(ctx, func(inner vfs.File) error { return inner.Truncate(ctx, size) }, nil)
}

// Fallocate implements vfs.File (idempotent).
func (f *failoverFile) Fallocate(ctx *sim.Ctx, off, n int64) error {
	return f.run(ctx, func(inner vfs.File) error { return inner.Fallocate(ctx, off, n) }, nil)
}

// Fsync implements vfs.File. With synchronous replication a positive ack
// means the data is on every live replica; after failover the successor
// has it, so a retried fsync is a plain retry.
func (f *failoverFile) Fsync(ctx *sim.Ctx) error {
	return f.run(ctx, func(inner vfs.File) error { return inner.Fsync(ctx) }, nil)
}

// Mmap implements vfs.File.
func (f *failoverFile) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return nil, fileserver.ErrNotSupported
}

// Extents implements vfs.File.
func (f *failoverFile) Extents() []mmu.Extent { return nil }

// SetXattr implements vfs.File (idempotent: last-writer-wins).
func (f *failoverFile) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	return f.run(ctx, func(inner vfs.File) error { return inner.SetXattr(ctx, name, value) }, nil)
}

// GetXattr implements vfs.File.
func (f *failoverFile) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	inner, _, err := f.snapshot()
	if err != nil {
		return nil, false
	}
	return inner.GetXattr(ctx, name)
}

// Lease implements pagecache.Leasable, remembering the mode so recovery
// can re-establish it on the new primary.
func (f *failoverFile) Lease(ctx *sim.Ctx, write bool) (bool, error) {
	var granted bool
	err := f.run(ctx, func(inner vfs.File) error {
		l := leaseOf(inner)
		if l == nil {
			return fileserver.ErrNotSupported
		}
		var lerr error
		granted, lerr = l.Lease(ctx, write)
		return lerr
	}, nil)
	if err == nil && granted {
		f.mu.Lock()
		if write {
			f.lease = 2
		} else {
			f.lease = 1
		}
		f.mu.Unlock()
	}
	return granted, err
}

// Unlease implements pagecache.Leasable.
func (f *failoverFile) Unlease(ctx *sim.Ctx) error {
	f.mu.Lock()
	f.lease = 0
	f.mu.Unlock()
	return f.run(ctx, func(inner vfs.File) error {
		l := leaseOf(inner)
		if l == nil {
			return nil
		}
		return l.Unlease(ctx)
	}, nil)
}

// Close implements vfs.File. A close interrupted by a crash is complete
// by definition: the dead server closed every handle in teardown.
func (f *failoverFile) Close(ctx *sim.Ctx) error {
	f.c.unregister(f)
	inner, _, err := f.snapshot()
	if err != nil {
		return nil // stale handle: the server-side close already happened
	}
	cerr := inner.Close(ctx)
	if gone(cerr) {
		return nil
	}
	return cerr
}
