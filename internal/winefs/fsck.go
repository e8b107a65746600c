package winefs

import (
	"fmt"

	"repro/internal/pmem"
)

// CheckReport is the result of an offline consistency check of a WineFS
// image.
type CheckReport struct {
	// Errors lists invariant violations. Empty means the image is
	// consistent.
	Errors []string
	// Files and Dirs count live inodes found.
	Files int
	Dirs  int
	// UsedBlocks is the number of data blocks referenced by live inodes.
	UsedBlocks int64

	// faults counts the errors that are walker faults (image.go): the ones
	// a mount of the same image fails or degrades on.
	faults int
}

func (r *CheckReport) errf(format string, args ...interface{}) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// faultf records a walker fault.
func (r *CheckReport) faultf(format string, args ...interface{}) {
	r.faults++
	r.errf(format, args...)
}

// OK reports whether the image passed all checks.
func (r *CheckReport) OK() bool { return len(r.Errors) == 0 }

// Check verifies the on-PM invariants of a WineFS image without mounting
// it (the journal must already be quiescent or recovered). It is the
// reporting policy over the image walker (image.go): every fault the walker
// finds — the faults a mount degrades on — is an error, and so is what only
// a whole-image view can see:
//
//   - a block referenced twice, by extents or indirect chains;
//   - a directory entry that references no live inode;
//   - a live non-root inode no dirent references, a file whose link count
//     differs from its references, or a directory's from 2 plus its
//     subdirectories (the rule Repair rewrites the counts by).
//
// An inode's list ends at its first fault, as it does for Mount and Repair:
// the records past it are not examined.
func Check(dev *pmem.Device) *CheckReport {
	return CheckTiered(dev, 0)
}

// CheckTiered is Check for a tiered image: the extent records of regular
// files may additionally point into the slow region
// [slowBase, slowBase+slowBlocks), where slowBase is totalBlocks rounded up
// to a hugepage boundary — the same placement Mount computes. slowBlocks = 0
// checks a pure-PM image.
func CheckTiered(dev *pmem.Device, slowBlocks int64) *CheckReport {
	r := &CheckReport{}
	im, err := openImage(dev, slowBlocks)
	if err != nil {
		r.faultf("%v", err)
		return r
	}

	inodes := map[uint64]*imageInode{}
	blockOwner := map[int64]uint64{}
	claim := func(what string, ino uint64, blk, length int64) {
		for b := blk; b < blk+length; b++ {
			if owner, dup := blockOwner[b]; dup {
				r.errf("%s %d referenced by both ino %d and ino %d", what, b, owner, ino)
			} else {
				blockOwner[b] = ino
				r.UsedBlocks++
			}
		}
	}

	// Pass 1: inode tables.
	im.walkInodes(func(n *imageInode) {
		if n.fault != nil {
			r.faultf("ino %d: %s", n.ino, n.fault)
			if n.lost() {
				return
			}
		}
		for _, e := range n.extents {
			claim("block", n.ino, e.blk, e.length)
		}
		// Indirect blocks are owned storage too.
		for _, ib := range n.chain {
			claim("indirect block", n.ino, ib, 1)
		}
		inodes[n.ino] = n
		if n.di.typ == typeDir {
			r.Dirs++
		} else {
			r.Files++
		}
	})
	if inodes[1] == nil || inodes[1].di.typ != typeDir {
		r.errf("root inode missing or not a directory")
		return r
	}

	// Pass 2: directory entries.
	refcount := map[uint64]int{}
	subdirs := map[uint64]int{}
	for _, dir := range inodes {
		if dir.di.typ != typeDir {
			continue
		}
		im.walkDirents(dir.extents, func(blk int64, ents []imageDirent, fault *imageFault) {
			if fault != nil {
				r.faultf("dir %d: %s", dir.ino, fault)
				return
			}
			for _, de := range ents {
				if !de.live {
					continue
				}
				if inodes[de.ino] == nil {
					r.errf("dir %d: entry %q references dead ino %d", dir.ino, de.name, de.ino)
					continue
				}
				refcount[de.ino]++
				if inodes[de.ino].di.typ == typeDir {
					subdirs[dir.ino]++
				}
			}
		})
	}
	for ino, n := range inodes {
		if ino != 1 && refcount[ino] == 0 {
			r.errf("ino %d (%s, size=%d) is orphaned", ino, typeName(n.di.typ), n.di.size)
		}
		if n.di.typ == typeDir {
			if want := 2 + subdirs[ino]; int(n.di.nlink) != want {
				r.errf("dir %d: nlink=%d but it has %d subdirectories (want %d)", ino, n.di.nlink, subdirs[ino], want)
			}
		} else if refcount[ino] != int(n.di.nlink) {
			r.errf("ino %d: nlink=%d but %d references", ino, n.di.nlink, refcount[ino])
		}
	}
	return r
}

func typeName(t uint8) string {
	if t == typeDir {
		return "dir"
	}
	return "file"
}
