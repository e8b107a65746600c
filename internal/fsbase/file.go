package fsbase

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/alloc"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File is an open baseline-FS file handle.
type File struct {
	fs   *FS
	node *Node
}

var _ vfs.File = (*File)(nil)

// Ino implements vfs.File.
func (f *File) Ino() uint64 { return f.node.Ino }

// Size implements vfs.File.
func (f *File) Size() int64 { return f.node.Size() }

// Close implements vfs.File.
func (f *File) Close(ctx *sim.Ctx) error { return nil }

// findRun locates the extent run backing fileBlk. Caller holds node.mu.
func (n *Node) findRun(fileBlk int64) (phys int64, run int64, unwritten bool, ok bool) {
	i := n.extentAt(fileBlk)
	if i < 0 {
		return 0, 0, false, false
	}
	e := n.extents[i]
	return e.Blk + (fileBlk - e.FileBlk), e.Len - (fileBlk - e.FileBlk), e.Unwritten, true
}

// extentAt returns the index of the extent covering fileBlk, or -1, by
// binary search over the sorted list. Caller holds node.mu.
func (n *Node) extentAt(fileBlk int64) int {
	i := sort.Search(len(n.extents), func(i int) bool {
		return n.extents[i].FileBlk+n.extents[i].Len > fileBlk
	})
	if i == len(n.extents) || n.extents[i].FileBlk > fileBlk {
		return -1
	}
	return i
}

func (n *Node) nextExtentStart(fileBlk, max int64) int64 {
	i := sort.Search(len(n.extents), func(i int) bool { return n.extents[i].FileBlk > fileBlk })
	if i == len(n.extents) || n.extents[i].FileBlk >= max {
		return max
	}
	return n.extents[i].FileBlk
}

func (n *Node) insertExtent(e Ext) {
	// Merge with predecessor when contiguous and same unwritten state.
	i := sort.Search(len(n.extents), func(i int) bool { return n.extents[i].FileBlk > e.FileBlk })
	if i > 0 {
		p := &n.extents[i-1]
		if p.FileBlk+p.Len == e.FileBlk && p.Blk+p.Len == e.Blk && p.Unwritten == e.Unwritten {
			p.Len += e.Len
			return
		}
	}
	n.extents = append(n.extents, Ext{})
	copy(n.extents[i+1:], n.extents[i:])
	n.extents[i] = e
}

// ReadAt implements vfs.File.
func (f *File) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	n := f.node
	n.mu.RLock()
	defer n.mu.RUnlock()
	if off >= n.size {
		return 0, nil
	}
	if off+int64(len(p)) > n.size {
		p = p[:n.size-off]
	}
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, unwritten, ok := n.findRun(blk)
		if !ok || unwritten {
			// Hole or unwritten fallocated space reads as zero.
			var end int64
			if !ok {
				end = n.nextExtentStart(blk, (off+int64(len(p))+BlockSize-1)/BlockSize) * BlockSize
			} else {
				end = (blk + run) * BlockSize
			}
			k := end - pos
			if k > int64(len(p)-read) {
				k = int64(len(p) - read)
			}
			z := p[read : read+int(k)]
			for i := range z {
				z[i] = 0
			}
			read += int(k)
			continue
		}
		k := run*BlockSize - in
		if k > int64(len(p)-read) {
			k = int64(len(p) - read)
		}
		f.fs.dev.Read(ctx, p[read:read+int(k)], phys*BlockSize+in)
		read += int(k)
	}
	return read, nil
}

// WriteAt implements vfs.File.
func (f *File) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return f.write(ctx, p, off)
}

// Append implements vfs.File.
func (f *File) Append(ctx *sim.Ctx, p []byte) (int, error) {
	f.node.mu.RLock()
	off := f.node.size
	f.node.mu.RUnlock()
	return f.write(ctx, p, off)
}

func (f *File) write(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	ctx.Syscall(f.fs.model.SyscallNS)
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	n := f.node
	h := fs.locks.Lock(ctx, n.Ino)
	defer h.Unlock(ctx)
	n.mu.Lock()
	defer n.mu.Unlock()

	length := int64(len(p))
	end := off + length
	oldSize := n.size
	startBlk := off / BlockSize
	endBlk := (end + BlockSize - 1) / BlockSize

	// Zero the stale tail of a mid-block EOF when writing past it.
	if off > oldSize && oldSize%BlockSize != 0 {
		if phys, _, unwritten, ok := n.findRun(oldSize / BlockSize); ok && !unwritten {
			tail := min(BlockSize-oldSize%BlockSize, off-oldSize)
			fs.dev.Zero(ctx, phys*BlockSize+oldSize%BlockSize, tail)
		}
	}

	// Allocate unbacked blocks.
	newExtents := 0
	for b := startBlk; b < endBlk; {
		if _, run, _, ok := n.findRun(b); ok {
			b += run
			continue
		}
		gapEnd := n.nextExtentStart(b, endBlk)
		need := gapEnd - b
		goal := int64(-1)
		if len(n.extents) > 0 {
			last := n.extents[len(n.extents)-1]
			if last.FileBlk+last.Len == b {
				goal = last.Blk + last.Len
			}
		}
		exts, err := fs.hooks.Alloc(ctx, need, AllocHint{
			Node: n, FileBlk: b, Goal: goal, Large: need >= alloc.BlocksPerHuge,
		})
		if err != nil {
			return 0, err
		}
		fileBlk := b
		for _, e := range exts {
			// Zero the edge bytes the write won't cover.
			f.zeroEdges(ctx, e, fileBlk*BlockSize, (fileBlk+e.Len)*BlockSize, off, end)
			n.insertExtent(Ext{FileBlk: fileBlk, Blk: e.Start, Len: e.Len})
			fileBlk += e.Len
			newExtents++
		}
		b = gapEnd
	}

	// Overwrite policy for bytes that already existed.
	overwriteEnd := min(end, oldSize)
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		in := pos % BlockSize
		phys, run, unwritten, ok := n.findRun(blk)
		if !ok {
			return written, vfs.ErrNoSpace
		}
		chunk := run*BlockSize - in
		if chunk > int64(len(p)-written) {
			chunk = int64(len(p) - written)
		}
		// A block "has old data" if any byte of it precedes oldSize.
		hasOld := blk*BlockSize < overwriteEnd && !unwritten
		if hasOld && fs.hooks.Overwrite(ctx, n, pos, chunk) == CoW {
			if err := f.cow(ctx, p[written:written+int(chunk)], pos); err != nil {
				return written, err
			}
			written += int(chunk)
			continue
		}
		if unwritten {
			// ext4 semantics: converting an unwritten range zeroes the
			// block edges the write leaves untouched.
			f.clearUnwrittenAround(ctx, blk, (pos+chunk+BlockSize-1)/BlockSize)
		}
		fs.dev.WriteNT(ctx, p[written:written+int(chunk)], phys*BlockSize+in)
		written += int(chunk)
	}
	fs.hooks.DataWrite(ctx, n, length)
	if end > n.size {
		n.size = end
	}
	fs.hooks.MetaOp(ctx, n, 1+newExtents, MetaData)
	return len(p), nil
}

// clearUnwrittenAround converts the unwritten extents overlapping
// [startBlk, endBlk) to written, charging the zeroing of their edges.
func (f *File) clearUnwrittenAround(ctx *sim.Ctx, startBlk, endBlk int64) {
	n := f.node
	for i := range n.extents {
		e := &n.extents[i]
		if !e.Unwritten || e.FileBlk+e.Len <= startBlk || e.FileBlk >= endBlk {
			continue
		}
		// Zero the whole extent's device range outside the write: charged
		// coarsely as the extent's edges (one block each side).
		f.fs.dev.Zero(ctx, e.Blk*BlockSize, min(e.Len, 2)*BlockSize)
		e.Unwritten = false
	}
}

func (f *File) zeroEdges(ctx *sim.Ctx, e alloc.Extent, zs, ze, skipS, skipE int64) {
	physBase := e.StartByte()
	if skipE <= zs || skipS >= ze {
		f.fs.dev.Zero(ctx, physBase, ze-zs)
		return
	}
	if skipS > zs {
		f.fs.dev.Zero(ctx, physBase, skipS-zs)
	}
	if skipE < ze {
		f.fs.dev.Zero(ctx, physBase+(skipE-zs), ze-skipE)
	}
}

// cow redirects the blocks covering [off, off+len(p)) to new allocations,
// copying old partial content (NOVA's 4KiB CoW granularity — the write
// amplification §5.5's WiredTiger analysis describes).
func (f *File) cow(ctx *sim.Ctx, p []byte, off int64) error {
	fs := f.fs
	n := f.node
	startBlk := off / BlockSize
	end := off + int64(len(p))
	endBlk := (end + BlockSize - 1) / BlockSize

	exts, err := fs.hooks.Alloc(ctx, endBlk-startBlk, AllocHint{Node: n, FileBlk: startBlk, Goal: -1})
	if err != nil {
		return err
	}
	ctx.Counters.CoWCopies += endBlk - startBlk
	var newBlks []int64
	for _, e := range exts {
		for b := e.Start; b < e.End(); b++ {
			newBlks = append(newBlks, b)
		}
	}
	buf := make([]byte, BlockSize)
	for i, nb := range newBlks {
		fileBlk := startBlk + int64(i)
		oldPhys, _, _, okOld := n.findRun(fileBlk)
		bs := fileBlk * BlockSize
		be := bs + BlockSize
		ws, we := max(off, bs), min(end, be)
		if okOld && (ws > bs || we < be) {
			fs.dev.Read(ctx, buf, oldPhys*BlockSize)
			fs.dev.WriteNT(ctx, buf, nb*BlockSize)
		}
		fs.dev.WriteNT(ctx, p[ws-off:we-off], nb*BlockSize+(ws-bs))
	}
	// Data+metadata consistency: the new blocks, non-temporal copies, are
	// durable at this fence, before the log entry that publishes them.
	fs.dev.Fence(ctx)
	f.replaceRange(ctx, startBlk, endBlk, exts)
	return nil
}

// replaceRange swaps the mapping of [startBlk, endBlk) to newExts, freeing
// the displaced blocks. Caller holds node.mu.
func (f *File) replaceRange(ctx *sim.Ctx, startBlk, endBlk int64, newExts []alloc.Extent) {
	n := f.node
	var freed []alloc.Extent
	var keep []Ext
	for _, e := range n.extents {
		eEnd := e.FileBlk + e.Len
		if eEnd <= startBlk || e.FileBlk >= endBlk {
			keep = append(keep, e)
			continue
		}
		ovS, ovE := max(e.FileBlk, startBlk), min(eEnd, endBlk)
		freed = append(freed, alloc.Extent{Start: e.Blk + (ovS - e.FileBlk), Len: ovE - ovS})
		if e.FileBlk < ovS {
			keep = append(keep, Ext{FileBlk: e.FileBlk, Blk: e.Blk, Len: ovS - e.FileBlk, Unwritten: e.Unwritten})
		}
		if ovE < eEnd {
			keep = append(keep, Ext{FileBlk: ovE, Blk: e.Blk + (ovE - e.FileBlk), Len: eEnd - ovE, Unwritten: e.Unwritten})
		}
	}
	fileBlk := startBlk
	for _, e := range newExts {
		l := min(e.Len, endBlk-fileBlk)
		if l <= 0 {
			f.fs.hooks.Free(ctx, []alloc.Extent{e})
			continue
		}
		keep = append(keep, Ext{FileBlk: fileBlk, Blk: e.Start, Len: l})
		if l < e.Len {
			f.fs.hooks.Free(ctx, []alloc.Extent{{Start: e.Start + l, Len: e.Len - l}})
		}
		fileBlk += l
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].FileBlk < keep[j].FileBlk })
	n.extents = keep
	f.fs.hooks.Free(ctx, freed)
}

// Truncate implements vfs.File (grow = sparse, shrink = free).
func (f *File) Truncate(ctx *sim.Ctx, size int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	fs := f.fs
	n := f.node
	h := fs.locks.Lock(ctx, n.Ino)
	defer h.Unlock(ctx)
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < n.size {
		// POSIX: zero the stale tail of the last kept block so a later
		// grow reads zeros past the new EOF.
		if size%BlockSize != 0 {
			if phys, _, unwritten, ok := n.findRun(size / BlockSize); ok && !unwritten {
				fs.dev.Zero(ctx, phys*BlockSize+size%BlockSize, BlockSize-size%BlockSize)
			}
		}
		keepBlks := (size + BlockSize - 1) / BlockSize
		var freed []alloc.Extent
		var keep []Ext
		for _, e := range n.extents {
			eEnd := e.FileBlk + e.Len
			if eEnd <= keepBlks {
				keep = append(keep, e)
				continue
			}
			if e.FileBlk >= keepBlks {
				freed = append(freed, alloc.Extent{Start: e.Blk, Len: e.Len})
				continue
			}
			cut := keepBlks - e.FileBlk
			keep = append(keep, Ext{FileBlk: e.FileBlk, Blk: e.Blk, Len: cut, Unwritten: e.Unwritten})
			freed = append(freed, alloc.Extent{Start: e.Blk + cut, Len: e.Len - cut})
		}
		n.extents = keep
		if len(freed) > 0 {
			// Shoot down live mapping translations before the freed
			// blocks can be reused; faults past the new EOF now get
			// vfs.ErrMapFault instead of a recycled extent.
			for _, m := range n.mappings {
				m.Invalidate()
			}
		}
		fs.hooks.Free(ctx, freed)
	}
	n.size = size
	fs.hooks.MetaOp(ctx, n, 1, MetaData)
	return nil
}

// Fallocate implements vfs.File.
func (f *File) Fallocate(ctx *sim.Ctx, off, length int64) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	fs := f.fs
	n := f.node
	h := fs.locks.Lock(ctx, n.Ino)
	defer h.Unlock(ctx)
	n.mu.Lock()
	defer n.mu.Unlock()

	startBlk := off / BlockSize
	endBlk := (off + length + BlockSize - 1) / BlockSize
	newExtents := 0
	for b := startBlk; b < endBlk; {
		if _, run, _, ok := n.findRun(b); ok {
			b += run
			continue
		}
		gapEnd := n.nextExtentStart(b, endBlk)
		need := gapEnd - b
		goal := int64(-1)
		if len(n.extents) > 0 {
			last := n.extents[len(n.extents)-1]
			if last.FileBlk+last.Len == b {
				goal = last.Blk + last.Len
			}
		}
		exts, err := fs.hooks.Alloc(ctx, need, AllocHint{Node: n, FileBlk: b, Goal: goal, Large: need >= alloc.BlocksPerHuge})
		if err != nil {
			return err
		}
		fileBlk := b
		for _, e := range exts {
			unwritten := fs.hooks.ZeroOnFault()
			if !unwritten {
				// NOVA-style: zero the space now so faults are cheap.
				fs.dev.Zero(ctx, e.StartByte(), e.Bytes())
			}
			n.insertExtent(Ext{FileBlk: fileBlk, Blk: e.Start, Len: e.Len, Unwritten: unwritten})
			fileBlk += e.Len
			newExtents++
		}
		b = gapEnd
	}
	if off+length > n.size {
		n.size = off + length
	}
	fs.hooks.MetaOp(ctx, n, 1+newExtents, MetaData)
	return nil
}

// Fsync implements vfs.File.
func (f *File) Fsync(ctx *sim.Ctx) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	f.fs.hooks.Fsync(ctx, f.node)
	return nil
}

// Extents implements vfs.File, built on demand (faults never need the
// whole list: they resolve through extentAt).
func (f *File) Extents() []mmu.Extent {
	n := f.node
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]mmu.Extent, len(n.extents))
	for i := range n.extents {
		out[i] = n.mapExtent(i)
	}
	return out
}

// mapExtent returns extent i in mmu form. Caller holds node.mu.
func (n *Node) mapExtent(i int) mmu.Extent {
	e := n.extents[i]
	return mmu.Extent{FileOff: e.FileBlk * BlockSize, Phys: e.Blk * BlockSize, Len: e.Len * BlockSize}
}

// SetXattr implements vfs.File. Baselines accept but do not act on the
// alignment attribute (they have no alignment machinery to feed it to).
func (f *File) SetXattr(ctx *sim.Ctx, name string, value []byte) error {
	ctx.Syscall(f.fs.model.SyscallNS)
	return nil
}

// GetXattr implements vfs.File.
func (f *File) GetXattr(ctx *sim.Ctx, name string) ([]byte, bool) {
	ctx.Syscall(f.fs.model.SyscallNS)
	return nil, false
}

// Mmap implements vfs.File.
func (f *File) Mmap(ctx *sim.Ctx, length int64) (*mmu.Mapping, error) {
	return vfs.Mmap(ctx, f, length)
}

// Fault implements mmu.FaultHandler for baseline file systems: hugepages
// when the layout happens to permit them; zero-on-fault charges for
// unwritten (fallocated) space; 4KiB demand allocation for sparse holes.
func (f *File) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	fs := f.fs
	n := f.node
	chunkOff := pageOff / mmu.HugePage * mmu.HugePage

	n.mu.Lock()
	defer n.mu.Unlock()
	// The extent covering the page, by binary search, decides both the
	// hugepage and the base page (mmu.Resolve).
	if i := n.extentAt(pageOff / BlockSize); i >= 0 {
		r := mmu.Resolve(n.mapExtent(i), pageOff)
		if r.Huge {
			if f.faultZero(ctx, chunkOff/BlockSize, mmu.PagesPerHuge) {
				fs.dev.Zero(ctx, r.Phys, mmu.HugePage)
			}
		} else if f.faultZero(ctx, pageOff/BlockSize, 1) {
			fs.dev.Zero(ctx, r.Phys, BlockSize)
		}
		return r, nil
	}
	// SIGBUS rule: demand allocation only backs pages inside the current
	// size; past the page-rounded EOF the access is a typed fault error
	// (the file may have been truncated under the mapping).
	if pageOff >= (n.size+BlockSize-1)/BlockSize*BlockSize {
		return mmu.FaultResult{}, fmt.Errorf("%s: fault at %d beyond eof %d: %w", fs.Name(), pageOff, n.size, vfs.ErrMapFault)
	}
	// Sparse hole: demand-allocate one base page.
	exts2, err := fs.hooks.Alloc(ctx, 1, AllocHint{Node: n, FileBlk: pageOff / BlockSize, Goal: -1})
	if err != nil {
		return mmu.FaultResult{}, err
	}
	blk := exts2[0].Start
	fs.dev.Zero(ctx, blk*BlockSize, BlockSize)
	n.insertExtent(Ext{FileBlk: pageOff / BlockSize, Blk: blk, Len: 1})
	fs.hooks.MetaOp(ctx, n, 1, MetaData)
	return mmu.FaultResult{Phys: blk * BlockSize}, nil
}

// faultZero reports whether the pages at [blk, blk+count) are unwritten
// (needing fault-time zeroing) and marks exactly that range written,
// splitting extents as needed — so every fault into fallocated space pays
// its own zeroing (the ext4-DAX behaviour Table 2's discussion describes).
// Caller holds n.mu.
func (f *File) faultZero(ctx *sim.Ctx, blk, count int64) bool {
	if !f.fs.hooks.ZeroOnFault() {
		return false
	}
	n := f.node
	// Only the extents overlapping the range can change: the list is sorted
	// and disjoint, so they are one run [i, j), found by binary search, and
	// the rest of a list of thousands is left where it is.
	i := sort.Search(len(n.extents), func(k int) bool { return n.extents[k].FileBlk+n.extents[k].Len > blk })
	j := i
	zero := false
	for ; j < len(n.extents) && n.extents[j].FileBlk < blk+count; j++ {
		zero = zero || n.extents[j].Unwritten
	}
	if !zero {
		return false
	}
	var out []Ext
	for _, e := range n.extents[i:j] {
		eEnd := e.FileBlk + e.Len
		if !e.Unwritten {
			out = append(out, e)
			continue
		}
		ovS, ovE := max(e.FileBlk, blk), min(eEnd, blk+count)
		if e.FileBlk < ovS {
			out = append(out, Ext{FileBlk: e.FileBlk, Blk: e.Blk, Len: ovS - e.FileBlk, Unwritten: true})
		}
		out = append(out, Ext{FileBlk: ovS, Blk: e.Blk + (ovS - e.FileBlk), Len: ovE - ovS})
		if ovE < eEnd {
			out = append(out, Ext{FileBlk: ovE, Blk: e.Blk + (ovE - e.FileBlk), Len: eEnd - ovE, Unwritten: true})
		}
	}
	n.extents = slices.Replace(n.extents, i, j, out...)
	return true
}
