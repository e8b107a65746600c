package winefs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// The extent list used to be kept sorted by appending and re-sorting
// (sortExtents, through sort.Slice, per record added); recAppend now
// inserts at the position its search found and detachRange starts at the
// first overlapping extent instead of walking the list. extentModel is
// the old bookkeeping, kept here as the oracle: same order, same record
// slots, step for step.
type extentModel struct {
	exts  []wextent
	slots []int
}

// oldSortExtents is sortExtents as recAppend called it.
func oldSortExtents(exts []wextent, slots []int) {
	type pair struct {
		e wextent
		s int
	}
	ps := make([]pair, len(exts))
	for i := range exts {
		ps[i] = pair{exts[i], slots[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].e.fileBlk < ps[j].e.fileBlk })
	for i := range ps {
		exts[i], slots[i] = ps[i].e, ps[i].s
	}
}

func (m *extentModel) append(e wextent) {
	i := sort.Search(len(m.exts), func(i int) bool { return m.exts[i].fileBlk > e.fileBlk })
	if i > 0 {
		if p := &m.exts[i-1]; p.fileBlk+p.length == e.fileBlk && p.blk+p.length == e.blk {
			p.length += e.length
			return
		}
	}
	if i < len(m.exts) {
		if nx := &m.exts[i]; e.fileBlk+e.length == nx.fileBlk && e.blk+e.length == nx.blk {
			nx.fileBlk, nx.blk, nx.length = e.fileBlk, e.blk, nx.length+e.length
			return
		}
	}
	m.exts = append(m.exts, e)
	m.slots = append(m.slots, len(m.exts)-1)
	oldSortExtents(m.exts, m.slots)
}

func (m *extentModel) remove(i int) {
	r, lastRec := m.slots[i], len(m.exts)-1
	if r != lastRec {
		for k := range m.slots {
			if m.slots[k] == lastRec {
				m.slots[k] = r
				break
			}
		}
	}
	m.exts = append(m.exts[:i], m.exts[i+1:]...)
	m.slots = append(m.slots[:i], m.slots[i+1:]...)
}

func (m *extentModel) detach(startBlk, endBlk int64) {
	for i := 0; i < len(m.exts); {
		e := m.exts[i]
		eEnd := e.fileBlk + e.length
		if eEnd <= startBlk || e.fileBlk >= endBlk {
			i++
			continue
		}
		ovS, ovE := max(e.fileBlk, startBlk), min(eEnd, endBlk)
		switch {
		case ovS == e.fileBlk && ovE == eEnd:
			m.remove(i)
		case ovS == e.fileBlk:
			m.exts[i].fileBlk, m.exts[i].blk, m.exts[i].length = ovE, e.blk+(ovE-e.fileBlk), eEnd-ovE
			i++
		case ovE == eEnd:
			m.exts[i].length = ovS - e.fileBlk
			i++
		default:
			m.exts[i].length = ovS - e.fileBlk
			m.append(wextent{fileBlk: ovE, blk: e.blk + (ovE - e.fileBlk), length: eEnd - ovE})
			i++
		}
	}
}

// recs is the model's list in the inode's form.
func (m *extentModel) recs() []extRec {
	out := make([]extRec, len(m.exts))
	for i, e := range m.exts {
		out[i] = extRec{e, m.slots[i]}
	}
	return out
}

// TestExtentListOrderProperty drives recAppend, recRemove and detachRange
// with 10⁴ seeded appends, merges, splits, trims and removes. After every
// step the DRAM list is strictly sorted by file block, the slots are a
// permutation of the record indexes, the list equals the old
// bookkeeping's, and the records decoded afresh from the media — what a
// mount would load — are the identical list; a real mount of the device
// checks that once more at the end. Every churnEvery steps the file dies
// and a new one takes its name, so the lists that follow grow in the
// record storage the dead ones handed back (destroyInode).
func TestExtentListOrderProperty(t *testing.T) {
	const (
		steps      = 10_000
		fileSpace  = 3000 // logical blocks the operations land in
		churnEvery = 1000
	)
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(1 << 30)
	opts := Options{CPUs: 1, Mode: vfs.Strict}
	fs, err := Mkfs(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ino *inode
	create := func() {
		f, err := fs.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		ino = f.(*File).ino
	}
	create()
	rng := sim.NewRand(20210926)
	var model extentModel

	// Physical blocks are made up, not allocated (nothing reads the data):
	// file block b lives at b + 100,000×colour, so logically adjacent pieces
	// of one colour are physically adjacent too and merge, and pieces of
	// different colours do not.
	phys := func(fileBlk int64) int64 { return fileBlk + 100_000*int64(1+rng.Intn(2)) }
	backed := func(b int64) bool { _, _, ok := ino.findRun(b); return ok }

	list := func(exts []extRec) string {
		s := make([]string, len(exts))
		for i, e := range exts {
			s[i] = fmt.Sprintf("%d:%d+%d@%d", e.fileBlk, e.blk, e.length, e.slot)
		}
		return fmt.Sprint(s)
	}
	im, err := openImage(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	// reused counts the files whose list grew in storage the pool held
	// when their predecessor died.
	var maxExtents, reused int
	held := -1
	for step := 0; step < steps; step++ {
		if step > 0 && step%churnEvery == 0 {
			// Detach the made-up blocks first (the allocator never gave them
			// out), then unlink: the emptied list's storage goes back.
			tx := fs.begin(ctx, ino)
			_, err := fs.detachRange(ctx, tx, ino, 0, math.MaxInt64)
			tx.dropped = tx.dropped[:0]
			if err = tx.finish("test", err); err != nil {
				t.Fatalf("step %d: emptying the file: %v", step, err)
			}
			if err := fs.Unlink(ctx, "/f"); err != nil {
				t.Fatal(err)
			}
			held = fs.recs.Held()
			create()
			model = extentModel{}
		}
		tx := fs.begin(ctx, ino)
		var what string
		switch r := rng.Intn(10); {
		case r < 6: // attach a run at the first unbacked block at or after a random one
			b := int64(rng.Intn(fileSpace))
			for b < fileSpace && backed(b) {
				b++
			}
			n := min(int64(1+rng.Intn(8)), ino.nextExtentStart(b, fileSpace)-b)
			if n <= 0 {
				break
			}
			e := wextent{fileBlk: b, blk: phys(b), length: n}
			what = fmt.Sprintf("append %d:%d+%d", e.fileBlk, e.blk, e.length)
			err = fs.recAppend(ctx, tx, ino, e)
			model.append(e)
		case r < 9: // detach a range: removes, trims and splits
			s := int64(rng.Intn(fileSpace))
			e := s + int64(1+rng.Intn(40))
			what = fmt.Sprintf("detach [%d,%d)", s, e)
			_, err = fs.detachRange(ctx, tx, ino, s, e)
			model.detach(s, e)
		case len(ino.extents) > 0:
			i := rng.Intn(len(ino.extents))
			what = fmt.Sprintf("remove %d", i)
			err = fs.recRemove(ctx, tx, ino, i)
			model.remove(i)
		}
		tx.dropped = tx.dropped[:0] // made-up blocks: nothing to give the allocator
		if err = tx.finish("test", err); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}

		for i := range ino.extents {
			if i > 0 && ino.extents[i-1].fileBlk+ino.extents[i-1].length > ino.extents[i].fileBlk {
				t.Fatalf("step %d (%s): extents %d and %d out of order or overlapping: %s", step, what, i-1, i, list(ino.extents))
			}
		}
		perm := make([]int, len(ino.extents))
		for i, e := range ino.extents {
			perm[i] = e.slot
		}
		slices.Sort(perm)
		for i, s := range perm {
			if s != i {
				t.Fatalf("step %d (%s): slots %v are not a permutation of 0..%d", step, what, perm, len(perm)-1)
			}
		}
		got := list(ino.extents)
		if want := list(model.recs()); got != want {
			t.Fatalf("step %d (%s): list differs from the append-and-sort bookkeeping\n got %s\nwant %s", step, what, got, want)
		}
		var hdr [inoOffExtents]byte
		dev.ReadAt(hdr[:], fs.g.inodeAddr(ino.ino))
		n := imageInode{ino: ino.ino, di: decodeInodeHeader(hdr[:])}
		im.readExtents(&n)
		if n.fault != nil {
			t.Fatalf("step %d (%s): the walker faults on the media: %s", step, what, n.fault)
		}
		loaded := fs.loadInode(&n)
		if onMedia := list(loaded.extents); onMedia != got {
			t.Fatalf("step %d (%s): the media decodes to a different list\nmedia %s\n DRAM %s", step, what, onMedia, got)
		}
		maxExtents = max(maxExtents, len(ino.extents))
		if fs.recs.Held() < held {
			reused, held = reused+1, -1
		}
	}
	if _, deg := fs.Degraded(); deg {
		t.Fatalf("degraded: %v", fs.DegradedReasons())
	}
	if maxExtents <= InlineExtents {
		t.Fatalf("the list never outgrew the %d inline records (peak %d): the indirect chain went untested", InlineExtents, maxExtents)
	}
	if reused < steps/churnEvery-1 {
		t.Fatalf("%d of the %d files after the first grew in recycled record storage", reused, steps/churnEvery-1)
	}
	want := list(ino.extents)
	rfs, err := Mount(ctx, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rino, err := rfs.resolve(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if got := list(rino.extents); got != want {
		t.Fatalf("a fresh mount decodes a different list\n got %s\nwant %s", got, want)
	}
	t.Logf("%d steps, %d files, peak %d extents, %d at the end", steps, steps/churnEvery, maxExtents, len(ino.extents))
}
