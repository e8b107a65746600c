package main

import (
	"fmt"

	"repro/benchmark/tracefs"
)

// posix_aged: the syscall path on the same aged image. One simulated
// thread creates, appends, fsyncs, reads back, overwrites in place
// (copy-on-write in strict mode), renames, stats and unlinks files at
// a steady live count over 16 directories. The VFS path walk and lock
// table, the journal, small-hole allocation and the flush/fence path
// do the work; vmm and mmu sit idle.
const (
	posixDirs     = 16
	posixLive     = 2048    // live files the mix steers towards
	posixMaxFile  = 1 << 20 // a file this large is read, not appended to
	posixWarmOps  = 100_000
	posixMaxIO    = 64 << 10 // largest append
	posixMaxRead  = 16 << 10
	posixMinIO    = 4 << 10
	posixIOQuanta = 512 // append and read sizes are multiples of this
)

type posixAged struct {
	c    *client
	rng  *simRand
	top  vfsFS
	seed uint64

	live   []*dataFile
	nextID uint64
	buf    [posixMaxIO]byte
}

func setupPosixAged(p params) (*stack, error) {
	ctx := newCtx(1, 0)
	st := &stack{}
	if err := setupAgedImage(ctx, st, p.seed); err != nil {
		return nil, err
	}
	w := &posixAged{rng: newRand(p.seed ^ 0x706f7378), seed: p.seed,
		top: tracefs.WrapFS(p.tr, st.fs, tracefs.Winefs)}
	for d := 0; d < posixDirs; d++ {
		if err := w.top.Mkdir(ctx, fmt.Sprintf("/p%02d", d)); err != nil {
			return nil, fmt.Errorf("mkdir: %w", err)
		}
	}
	w.c = newClient(ctx)
	st.clients = []*client{w.c}
	st.steps = []func(){w.step}
	// Warm-up brings the live set from empty to its steady count.
	st.warm(posixWarmOps)
	if w.c.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", w.c.firstErr)
	}
	return st, nil
}

func (w *posixAged) newPath() string {
	w.nextID++
	return fmt.Sprintf("/p%02d/f%08d", w.rng.Intn(posixDirs), w.nextID)
}

// ioSize draws a transfer size between posixMinIO and max,
// log-uniformly: small transfers are the common case, as in the
// file-size profiles the image was aged with.
func (w *posixAged) ioSize(max int64) int64 {
	n := int64(posixMinIO)
	for n < max && w.rng.Intn(2) == 0 {
		n *= 2
	}
	if n >= max {
		return max
	}
	return n + int64(w.rng.Intn(int(n/posixIOQuanta)))*posixIOQuanta
}

func (w *posixAged) pick() (*dataFile, int) {
	i := w.rng.Intn(len(w.live))
	return w.live[i], i
}

// step issues one operation of the mix (two calls for create, which
// writes the new file's first bytes, and for unlink, which closes the
// handle first). Creates outweigh unlinks below the live target and
// the reverse above it, so the live set and the utilisation hold
// steady.
func (w *posixAged) step() {
	c := w.c
	create, unlink := 8, 6
	if len(w.live) >= posixLive {
		create, unlink = 6, 8
	}
	if len(w.live) < 64 {
		w.create()
		return
	}
	switch r := w.rng.Intn(100); {
	case r < create:
		w.create()
	case r < create+unlink:
		pf, i := w.pick()
		c.begin()
		c.end(pf.f.Close(c.ctx))
		c.begin()
		c.end(w.top.Unlink(c.ctx, pf.path))
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	case r < 26:
		if pf, _ := w.pick(); pf.o.size < posixMaxFile {
			w.append(pf)
		} else {
			w.read(pf)
		}
	case r < 42:
		pf, _ := w.pick()
		blk := int64(w.rng.Intn(int(pf.o.size / blockSize)))
		buf := w.buf[:blockSize]
		pf.o.bump(blk*blockSize, blockSize)
		pf.o.fill(buf, blk*blockSize)
		c.begin()
		_, err := pf.f.WriteAt(c.ctx, buf, blk*blockSize)
		c.end(err)
		c.userBytes += blockSize
	case r < 50:
		pf, _ := w.pick()
		c.begin()
		c.end(pf.f.Fsync(c.ctx))
	case r < 55:
		pf, _ := w.pick()
		to := w.newPath()
		c.begin()
		err := w.top.Rename(c.ctx, pf.path, to)
		c.end(err)
		if err == nil {
			pf.path = to
		}
	case r < 70:
		pf, _ := w.pick()
		c.begin()
		fi, err := w.top.Stat(c.ctx, pf.path)
		c.end(err)
		if err == nil && fi.Size != pf.o.size {
			c.fail(fmt.Errorf("stat %s: size %d, oracle says %d", pf.path, fi.Size, pf.o.size))
		}
	default:
		pf, _ := w.pick()
		w.read(pf)
	}
}

func (w *posixAged) create() {
	c := w.c
	pf := &dataFile{path: w.newPath()}
	pf.o = newOracle(fileKey(w.seed, w.nextID), blockSize, 0, 1)
	c.begin()
	f, err := w.top.Create(c.ctx, pf.path)
	c.end(err)
	if err != nil {
		return
	}
	pf.f = f
	w.live = append(w.live, pf)
	w.append(pf)
}

func (w *posixAged) append(pf *dataFile) {
	c := w.c
	off, n := pf.o.size, w.ioSize(posixMaxIO)
	pf.o.grow(off+n, 1)
	buf := w.buf[:n]
	pf.o.fill(buf, off)
	c.begin()
	_, err := pf.f.Append(c.ctx, buf)
	c.end(err)
	c.userBytes += n
}

// read reads a random range back and checks every byte.
func (w *posixAged) read(pf *dataFile) {
	c := w.c
	n := w.ioSize(posixMaxRead)
	if n > pf.o.size {
		n = pf.o.size
	}
	off := int64(w.rng.Intn(int((pf.o.size-n)/posixIOQuanta)+1)) * posixIOQuanta
	buf := w.buf[:n]
	c.begin()
	got, err := pf.f.ReadAt(c.ctx, buf, off)
	c.end(err)
	if err == nil && (int64(got) != n || !pf.o.check(buf, off)) {
		c.fail(fmt.Errorf("read %s [%d,+%d): got %d bytes that do not match the oracle", pf.path, off, n, got))
	}
}
