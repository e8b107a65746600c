package winefs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// verdictImage is the populated image the verdict tests corrupt: the crash
// image (never unmounted, journals quiescent) of a two-CPU file system
// holding /small (three inline records), /other (a neighbour to cross-link
// with), /big (300 records: the inline ones and two indirect blocks), /dir
// (70 files and a subdirectory: two dirent blocks) and, on the tiered
// variant, /cold with its data on the slow tier — plus where each of those
// structures sits on the media.
type verdictImage struct {
	size       int64
	pm         *pmem.Device
	slow       *tier.SlowDevice // nil untiered
	slowBlocks int64
	slowBase   int64
	opts       Options

	smallHdr, bigHdr  int64   // slot addresses
	smallRec, dirRec  []int64 // record addresses
	coldRec           []int64 // tiered only
	bigRec            []int64
	bigChain          []int64 // /big's indirect blocks
	dirBlocks         []int64 // /dir's dirent blocks
	dirFileHdr        int64   // slot of /dir/f03
	otherBlk, metaBlk int64   // a block /other owns; a block of the metadata region
	targets           [][2]int64
}

func buildVerdictImage(t *testing.T, tiered bool) *verdictImage {
	t.Helper()
	v := &verdictImage{size: 48 << 20, opts: Options{CPUs: 2, InodesPerCPU: 256, Mode: vfs.Strict}}
	if tiered {
		v.slow = tier.NewSlow(tier.DefaultSlowConfig(16 << 20))
		t.Cleanup(v.slow.Release)
		v.slowBlocks = v.slow.Size() / BlockSize
		v.opts.Tier = &TierOptions{Slow: v.slow}
	}
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(v.size)
	t.Cleanup(dev.Release)
	fs, err := Mkfs(ctx, dev, v.opts)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string) vfs.File {
		t.Helper()
		f, err := fs.Create(ctx, path)
		must(err)
		return f
	}
	blk := make([]byte, BlockSize)
	// Every other file block, so no two records merge.
	sparse := func(f vfs.File, records int) {
		t.Helper()
		for i := 0; i < records; i++ {
			_, err := f.WriteAt(ctx, blk, int64(2*i)*BlockSize)
			must(err)
		}
	}
	recs := func(ino *inode) []int64 {
		out := make([]int64, len(ino.extents))
		for i := range out {
			out[i], err = fs.extSlotAddr(nil, nil, ino, i)
			must(err)
		}
		return out
	}
	blocks := func(ino *inode) (out []int64) {
		for _, e := range ino.extents {
			for b := e.blk; b < e.blk+e.length; b++ {
				out = append(out, b)
			}
		}
		return out
	}
	sparse(create("/small"), 3)
	sparse(create("/other"), 2)
	sparse(create("/big"), 300)
	must(fs.Mkdir(ctx, "/dir"))
	for i := 0; i < 70; i++ {
		create(fmt.Sprintf("/dir/f%02d", i))
	}
	must(fs.Mkdir(ctx, "/dir/sub"))
	if tiered {
		fs.SetTierMarks(0.0001, 0.00005, 0) // PM counts as full: new data spills
		sparse(create("/cold"), 4)
		if slowBlks, _ := slowBlocksOf(fs, inoOf(t, ctx, fs, "/cold")); slowBlks != 4 {
			t.Fatalf("/cold has %d blocks on the slow tier, want 4", slowBlks)
		}
		v.slowBase = fs.tier.base
		v.coldRec = recs(inoOf(t, ctx, fs, "/cold"))
	}
	must(fs.Audit(ctx))

	small, big, dir := inoOf(t, ctx, fs, "/small"), inoOf(t, ctx, fs, "/big"), inoOf(t, ctx, fs, "/dir")
	v.smallHdr, v.bigHdr = fs.g.inodeAddr(small.ino), fs.g.inodeAddr(big.ino)
	v.smallRec, v.bigRec, v.dirRec = recs(small), recs(big), recs(dir)
	v.bigChain, v.dirBlocks = big.indirect, blocks(dir)
	v.dirFileHdr = fs.g.inodeAddr(inoOf(t, ctx, fs, "/dir/f03").ino)
	v.otherBlk, v.metaBlk = inoOf(t, ctx, fs, "/other").extents[0].blk, fs.g.cpuRegionStart
	if len(v.bigRec) != 300 || len(v.bigChain) != 2 || len(v.dirBlocks) < 2 {
		t.Fatalf("image shape: /big has %d records in %d indirect blocks, /dir %d dirent blocks; want 300, 2, ≥2",
			len(v.bigRec), len(v.bigChain), len(v.dirBlocks))
	}
	// What the fuzz may flip: the used part of every live inode slot and
	// indirect block, and every dirent block.
	for _, ino := range fs.snapshotInodes() {
		inline := min(len(ino.extents), InlineExtents)
		v.targets = append(v.targets, [2]int64{fs.g.inodeAddr(ino.ino), inoOffExtents + int64(inline)*extentSize})
		for k, b := range ino.indirect {
			used := min(len(ino.extents)-chainRecords(k), extPerIndirect)
			v.targets = append(v.targets, [2]int64{b * BlockSize, 8 + int64(used)*extentSize})
		}
		if ino.typ == typeDir {
			for _, b := range blocks(ino) {
				v.targets = append(v.targets, [2]int64{b * BlockSize, BlockSize})
			}
		}
	}
	// snapshotInodes ranges over maps: fix the order the seeds index.
	sort.Slice(v.targets, func(i, k int) bool { return v.targets[i][0] < v.targets[k][0] })
	v.pm = dev.Snapshot()
	return v
}

// verdicts is what the three policies say about one corrupted image, each
// on its own copy.
type verdicts struct {
	check        *CheckReport
	mountErr     error
	degraded     string // Degraded's reason, "" when not degraded
	repair       *RepairReport
	repairErr    error
	postCheck    *CheckReport
	postMount    error
	postDegraded string
	postAudit    error
}

// judge runs Check, Mount and Repair (then Check, Mount and Audit again) on
// copies of the image corrupt has been applied to. A panic anywhere fails
// the test with the label.
func (v *verdictImage) judge(t *testing.T, label string, corrupt func(dev *pmem.Device)) verdicts {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", label, r)
		}
	}()
	var copies []*pmem.Device
	defer func() {
		for _, dev := range copies {
			dev.Release()
		}
	}()
	copyOf := func() *pmem.Device {
		dev := v.pm.Snapshot()
		copies = append(copies, dev)
		corrupt(dev)
		return dev
	}
	var out verdicts
	out.check = CheckTiered(copyOf(), v.slowBlocks)
	if fs, err := Mount(sim.NewCtx(2, 0), copyOf(), v.opts); err != nil {
		out.mountErr = err
	} else {
		out.degraded, _ = fs.Degraded()
	}
	dev := copyOf()
	if out.repair, out.repairErr = RepairTiered(dev, v.slowBlocks); out.repairErr != nil {
		return out
	}
	out.postCheck = CheckTiered(dev, v.slowBlocks)
	ctx := sim.NewCtx(3, 0)
	fs, err := Mount(ctx, dev, v.opts)
	if out.postMount = err; err == nil {
		out.postDegraded, _ = fs.Degraded()
		out.postAudit = fs.Audit(ctx)
	}
	return out
}

// agree is the property every corruption must satisfy: Check reports a
// walker fault if and only if Mount fails or degrades.
func (o verdicts) agree() error {
	refused := o.mountErr != nil || o.degraded != ""
	if (o.check.faults > 0) != refused {
		return fmt.Errorf("Check reports %d walker faults %q, but Mount: err=%v degraded=%q",
			o.check.faults, o.check.Errors, o.mountErr, o.degraded)
	}
	return nil
}

// repaired is the property of a repairable image: after Repair, Check is
// clean, Mount is undegraded and Audit is clean.
func (o verdicts) repaired() error {
	switch {
	case o.repairErr != nil:
		return fmt.Errorf("repair: %v", o.repairErr)
	case !o.repair.Clean || !o.postCheck.OK():
		return fmt.Errorf("Check after Repair: %q", o.postCheck.Errors)
	case o.postMount != nil:
		return fmt.Errorf("mount after Repair: %v", o.postMount)
	case o.postDegraded != "":
		return fmt.Errorf("mount after Repair degraded: %q", o.postDegraded)
	case o.postAudit != nil:
		return fmt.Errorf("audit after Repair: %v", o.postAudit)
	}
	return nil
}

func put32(dev *pmem.Device, addr int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	dev.WriteAt(b[:], addr)
}

func put64(dev *pmem.Device, addr int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	dev.WriteAt(b[:], addr)
}

// TestImageVerdictsAgree corrupts one populated image one structure at a
// time and holds Mount, Check and Repair to one verdict per row: nothing
// panics; Check reports a walker fault exactly when Mount fails or
// degrades; and after Repair, Check is clean, Mount is undegraded and Audit
// is clean. Before the three shared one reader (image.go) they disagreed on
// the rows marked "parent:".
func TestImageVerdictsAgree(t *testing.T) {
	type row struct {
		name    string
		corrupt func(v *verdictImage, dev *pmem.Device)
		// fault: the corruption is a walker fault (else it is one only Check's
		// whole-image passes see). say is a piece of Check's message.
		fault bool
		say   string
		// fatal: the superblock is gone; Mount and Repair both give up.
		fatal      bool
		tieredOnly bool
	}
	rows := []row{
		// parent: two Check errors, Mount read-write and serving a regular file.
		{name: "invalid inode type", fault: true, say: "invalid inode type 7",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.WriteAt([]byte{7}, v.smallHdr+inoOffType) }},
		// parent: "broken indirect chain" to Check, Mount silently drops 33 records.
		{name: "zeroed chain pointer", fault: true, say: "indirect chain ends before the record (record 267",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put64(dev, v.bigChain[0]*BlockSize, 0) }},
		{name: "chain pointer past the device", fault: true, say: "indirect pointer outside the PM data area (record 267",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put64(dev, v.bigChain[0]*BlockSize, 1<<40) }},
		// parent: Mount follows it (in the device, so "in range").
		{name: "header chain pointer into the metadata region", fault: true, say: "indirect pointer outside the PM data area (record 12",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put64(dev, v.bigHdr+inoOffIndirect, uint64(v.metaBlk)) }},
		{name: "inline record of length 0", fault: true, say: "extent record has no length (record 1",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.smallRec[1]+8, 0) }},
		{name: "indirect record of length 0", fault: true, say: "extent record has no length (record 270",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.bigRec[270]+8, 0) }},
		// parent: Mount accepts any block inside the device.
		{name: "record pointing into the metadata region", fault: true, say: "outside the data area (record 2",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.smallRec[2]+4, uint32(v.metaBlk)) }},
		{name: "record running past the data area", fault: true, say: "outside the data area (record 0",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.smallRec[0]+8, 1<<30) }},
		{name: "directory record pointing into the slow region", fault: true, tieredOnly: true, say: "outside the data area (record 0",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.dirRec[0]+4, uint32(v.slowBase)) }},
		{name: "poisoned inode header", fault: true, say: "inode slot unreadable",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.Poison(v.smallHdr, 1) }},
		{name: "poisoned extent record", fault: true, say: "extent record unreadable (record 267",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.Poison(v.bigRec[270], 1) }},
		{name: "poisoned indirect block", fault: true, say: "extent record unreadable (record 12",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.Poison(v.bigChain[0]*BlockSize, 1) }},
		{name: "poisoned dirent block", fault: true, say: "dirent block unreadable",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.Poison(v.dirBlocks[1]*BlockSize+128, 1) }},
		{name: "dangling dirent", say: "references dead ino",
			corrupt: func(v *verdictImage, dev *pmem.Device) { dev.WriteAt([]byte{0, 0}, v.dirFileHdr+inoOffMagic) }},
		// parent: Mount panics indexing the inode shards.
		{name: "dirent naming an inode outside the tables", say: "references dead ino",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put64(dev, v.dirBlocks[0]*BlockSize+DirentSize, 1<<40) }},
		{name: "cross-linked block", say: "referenced by both",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.smallRec[1]+4, uint32(v.otherBlk)) }},
		// parent: the slow pool panics replaying the second claim.
		{name: "cross-linked slow block", tieredOnly: true, say: "referenced by both",
			corrupt: func(v *verdictImage, dev *pmem.Device) {
				var rec [4]byte
				dev.ReadAt(rec[:], v.coldRec[0]+4)
				dev.WriteAt(rec[:], v.coldRec[1]+4)
			}},
		{name: "cross-linked indirect block", say: "referenced by both",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, v.smallRec[1]+4, uint32(v.bigChain[1])) }},
		// parent: Mount panics with an integer divide by zero.
		{name: "superblock with cpus = 0", fault: true, fatal: true, say: "geometry invalid",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put32(dev, 16, 0) }},
		{name: "superblock with oversized totalBlocks", fault: true, fatal: true, say: "geometry invalid",
			corrupt: func(v *verdictImage, dev *pmem.Device) { put64(dev, 8, uint64(2*v.size/BlockSize)) }},
	}
	for _, tiered := range []bool{false, true} {
		v := buildVerdictImage(t, tiered)
		t.Run(fmt.Sprintf("tiered=%v/untouched", tiered), func(t *testing.T) {
			o := v.judge(t, "untouched", func(*pmem.Device) {})
			if !o.check.OK() || o.mountErr != nil || o.degraded != "" {
				t.Fatalf("the image is not clean to begin with: Check %q, Mount err=%v degraded=%q", o.check.Errors, o.mountErr, o.degraded)
			}
			if err := o.repaired(); err != nil {
				t.Fatal(err)
			}
			if r := o.repair; len(r.InodesZeroed)+len(r.ExtentsTruncated)+r.DirentsDropped+len(r.Orphans)+r.NlinksFixed != 0 {
				t.Fatalf("Repair changed a clean image: %+v", r)
			}
		})
		for _, r := range rows {
			if r.tieredOnly && !tiered {
				continue
			}
			t.Run(fmt.Sprintf("tiered=%v/%s", tiered, r.name), func(t *testing.T) {
				o := v.judge(t, r.name, func(dev *pmem.Device) { r.corrupt(v, dev) })
				if !strings.Contains(strings.Join(o.check.Errors, "\n"), r.say) {
					t.Errorf("Check does not say %q: %q", r.say, o.check.Errors)
				}
				if (o.check.faults > 0) != r.fault {
					t.Errorf("Check reports %d walker faults %q; a fault is expected: %v", o.check.faults, o.check.Errors, r.fault)
				}
				if err := o.agree(); err != nil {
					t.Error(err)
				}
				if r.fatal {
					if o.mountErr == nil || o.repairErr == nil {
						t.Errorf("with the superblock gone: Mount err=%v, Repair err=%v; both must give up", o.mountErr, o.repairErr)
					}
					return
				}
				if o.mountErr != nil {
					t.Errorf("Mount fails instead of degrading: %v", o.mountErr)
				}
				if err := o.repaired(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestImageFuzzVerdictsAgree flips one to four seeded bytes inside the
// structures the walker reads — live inode slots, indirect blocks, dirent
// blocks — of the populated image, 600 times: Mount, Check and Repair never
// panic, Check reports a walker fault exactly when Mount fails or degrades,
// and Repair brings every one of them back to clean.
func TestImageFuzzVerdictsAgree(t *testing.T) {
	const seeds = 600
	images := []*verdictImage{buildVerdictImage(t, false), buildVerdictImage(t, true)}
	var faults int
	for seed := 0; seed < seeds; seed++ {
		v := images[seed%2]
		rng := sim.NewRand(uint64(seed))
		type flip struct {
			addr int64
			xor  byte
		}
		flips := make([]flip, 1+rng.Intn(4))
		for i := range flips {
			tgt := v.targets[rng.Intn(len(v.targets))]
			flips[i] = flip{tgt[0] + rng.Int63n(tgt[1]), byte(1 + rng.Intn(255))}
		}
		label := fmt.Sprintf("seed %d %+v", seed, flips)
		o := v.judge(t, label, func(dev *pmem.Device) {
			var b [1]byte
			for _, f := range flips {
				dev.ReadAt(b[:], f.addr)
				b[0] ^= f.xor
				dev.WriteAt(b[:], f.addr)
			}
		})
		if err := o.agree(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := o.repaired(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if o.check.faults > 0 {
			faults++
		}
	}
	if faults == 0 || faults == seeds {
		t.Fatalf("%d of %d seeds produced a walker fault: the property was checked from one side only", faults, seeds)
	}
	t.Logf("%d seeds: %d with a walker fault", seeds, faults)
}
