package main

import (
	"fmt"

	"repro/benchmark/tracefs"
)

// srv_cached: the served path. Two concurrent clients, each a page
// cache over an RPC client over the in-memory transport, work on one
// file server over one populated strict WineFS. 70% of a client's
// operations go to a hot set that fits its cache, 20% scan a cold set
// that does not, 10% go to files both clients have open. pagecache and
// fileserver (wire codec, lease table, direct dispatch) dominate;
// winefs sees small operations through RPC. It is the one contended
// workload: the two sessions book the same journal, device ports and
// inode locks.
//
// Only client 0 writes the shared files. Symmetric shared writes are
// left out on purpose: two write-lease holders revoking each other can
// enter the documented worker-to-worker cross-revoke cycle and stall
// for twice the server's revoke timeout (README, Known gaps).
const (
	srvImageBytes  = 2 << 30 // sized for its inode tables: one inode per 32 blocks
	srvClients     = 2
	srvPrivate     = 4096 // files per client
	srvShared      = 64
	dataFileBlocks = 4 // 16KiB files
	srvHotFiles    = 640
	srvReopenEvery = 32 // the writer's shared-file accesses between close+open, which takes a fresh lease
	srvWarmOps     = 40_000
)

type srvClient struct {
	id  int
	c   *client
	rng *simRand
	top vfsFS

	private []dataFile
	shared  []vfsFile
	sharedN []int
	so      []*sharedOracle
	cold    int
	buf     [blockSize]byte
}

func setupSrvCached(p params) (*stack, error) {
	ctx := newCtx(1, 0)
	st := &stack{dev: newDevice(srvImageBytes)}
	fs, err := mkfsStrict(ctx, st.dev, nil)
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	st.fs = fs

	// Populate the image directly, before the server exists.
	var buf [dataFileBlocks * blockSize]byte
	populate := func(ctx *simCtx, path string, key uint64) error {
		f, err := fs.Create(ctx, path)
		if err != nil {
			return err
		}
		fillPat(buf[:], key, 0, 1)
		if _, err := f.Append(ctx, buf[:]); err != nil {
			return err
		}
		return f.Close(ctx)
	}
	clients := make([]*srvClient, srvClients)
	for i := range clients {
		sc := &srvClient{id: i, rng: newRand(p.seed ^ uint64(0x737276+i))}
		// Each client's files are made from the CPU its session will run
		// on, so they come out of that CPU's inode table and pools.
		pctx := newCtx(10+i, i%simCPUs)
		pctx.AdvanceTo(ctx.Now())
		dir := fmt.Sprintf("/c%d", i)
		if err := fs.Mkdir(pctx, dir); err != nil {
			return nil, err
		}
		sc.private = make([]dataFile, srvPrivate)
		for j := range sc.private {
			key := fileKey(p.seed, uint64(i+1)<<32|uint64(j))
			sc.private[j] = dataFile{path: fmt.Sprintf("%s/f%05d", dir, j),
				o: newOracle(key, blockSize, dataFileBlocks*blockSize, 1)}
			if err := populate(pctx, sc.private[j].path, key); err != nil {
				return nil, fmt.Errorf("populate: %w", err)
			}
		}
		ctx.AdvanceTo(pctx.Now())
		clients[i] = sc
	}
	if err := fs.Mkdir(ctx, "/shared"); err != nil {
		return nil, err
	}
	so := make([]*sharedOracle, srvShared)
	for j := range so {
		so[j] = newSharedOracle(fileKey(p.seed, uint64(j)), dataFileBlocks)
		if err := populate(ctx, sharedPath(j), so[j].key); err != nil {
			return nil, fmt.Errorf("populate shared: %w", err)
		}
	}

	srv, pl, stopServer := serve(tracefs.WrapFS(p.tr, fs, tracefs.Winefs), ctx.Now())
	st.server = srv
	for i, sc := range clients {
		rc, err := dialPipe(pl)
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		pc := newPageCache(tracefs.WrapFS(p.tr, rc, tracefs.Fileserver))
		st.caches = append(st.caches, pc)
		sc.top = tracefs.WrapFS(p.tr, pc, tracefs.Pagecache)
		cctx := newCtx(100+i, i%simCPUs)
		cctx.AdvanceTo(ctx.Now())
		sc.c = newClient(cctx)
		sc.so = so
		for j := range sc.private {
			if sc.private[j].f, err = sc.top.Open(cctx, sc.private[j].path); err != nil {
				return nil, fmt.Errorf("open: %w", err)
			}
		}
		sc.shared = make([]vfsFile, srvShared)
		sc.sharedN = make([]int, srvShared)
		for j := range sc.shared {
			if sc.shared[j], err = sc.top.Open(cctx, sharedPath(j)); err != nil {
				return nil, fmt.Errorf("open shared: %w", err)
			}
		}
		st.clients = append(st.clients, sc.c)
		st.steps = append(st.steps, sc.step)
	}
	st.stop = func() error {
		for _, sc := range clients {
			// Unmount flushes the cache's dirty pages and detaches the
			// session, which closes its handles.
			if err := sc.top.Unmount(sc.c.ctx); err != nil {
				return fmt.Errorf("client %d unmount: %w", sc.id, err)
			}
		}
		return stopServer()
	}
	st.warm(srvWarmOps)
	return st, nil
}

func sharedPath(j int) string { return fmt.Sprintf("/shared/s%03d", j) }

func (sc *srvClient) step() {
	r := sc.rng.Uint64()
	store := (r>>8)%10 == 0
	blk := int64((r >> 16) % dataFileBlocks)
	switch k := r % 10; {
	case k < 7:
		sc.private1(&sc.private[(r>>24)%srvHotFiles], blk, store)
	case k < 9:
		f := &sc.private[srvHotFiles+sc.cold/dataFileBlocks]
		blk = int64(sc.cold % dataFileBlocks)
		sc.cold = (sc.cold + 1) % ((srvPrivate - srvHotFiles) * dataFileBlocks)
		sc.private1(f, blk, store)
	default:
		sc.shared1(int((r>>24)%srvShared), int(blk), store && sc.id == 0)
	}
}

// private1 reads or writes one block of a file only this client uses.
func (sc *srvClient) private1(sf *dataFile, blk int64, store bool) {
	c, buf, off := sc.c, sc.buf[:], blk*blockSize
	if store {
		sf.o.bump(off, blockSize)
		sf.o.fill(buf, off)
		c.begin()
		_, err := sf.f.WriteAt(c.ctx, buf, off)
		c.end(err)
		c.userBytes += blockSize
		return
	}
	c.begin()
	n, err := sf.f.ReadAt(c.ctx, buf, off)
	c.end(err)
	if err == nil && (n != blockSize || !sf.o.check(buf, off)) {
		c.fail(fmt.Errorf("client %d read %s block %d: bytes do not match the oracle", sc.id, sf.path, blk))
	}
}

// shared1 reads or (client 0 only) writes and publishes one block of a
// file both clients hold open. A revoked lease leaves a handle
// pass-through until it is reopened, so the writer reopens each handle
// every srvReopenEvery accesses, as an application that rotates its
// descriptors would, and takes a fresh lease each time. The reader must
// not: the server revokes conflicting leases and then applies a write,
// and a lease granted between the two caches the old bytes under a
// lease nobody will revoke. A reader that reopened on the same schedule
// read stale blocks about once in 10^5 shared operations (README, Known
// gaps); one that keeps its handles is served by the server after the
// first revoke and cannot.
func (sc *srvClient) shared1(j, blk int, store bool) {
	c, buf, o, off := sc.c, sc.buf[:], sc.so[j], int64(blk)*blockSize
	if sc.sharedN[j]++; sc.id == 0 && sc.sharedN[j]%srvReopenEvery == 0 {
		c.begin()
		c.end(sc.shared[j].Close(c.ctx))
		c.begin()
		f, err := sc.top.Open(c.ctx, sharedPath(j))
		c.end(err)
		if err != nil {
			return
		}
		sc.shared[j] = f
	}
	f := sc.shared[j]
	if store {
		v := o.started[blk].Add(1)
		fillPat(buf, o.key, off, v)
		c.begin()
		_, err := f.WriteAt(c.ctx, buf, off)
		c.end(err)
		c.userBytes += blockSize
		c.begin()
		c.end(f.Fsync(c.ctx))
		o.done[blk].Store(v)
		return
	}
	lo := o.done[blk].Load()
	c.begin()
	n, err := f.ReadAt(c.ctx, buf, off)
	c.end(err)
	hi := o.started[blk].Load()
	if err == nil && (n != blockSize || !o.checkWindow(buf, blk, lo, hi)) {
		c.fail(fmt.Errorf("client %d read shared %d block %d: no version in [%d,%d] matches", sc.id, j, blk, lo, hi))
	}
}
