// Package part implements P-ART, the persistent adaptive radix tree the
// paper uses for its latency-distribution experiment (§5.4, Figure 8).
// Like the original (RECIPE's converted ART), it lives in a PM pool that
// is memory-mapped and pre-faulted at initialisation — "the lookups don't
// suffer from page faults as page-tables are already setup" — so lookup
// latency is governed purely by TLB misses and LLC behaviour, i.e. by
// whether the pool is mapped with hugepages.
//
// Node types follow ART: Node4, Node16, Node48 and Node256, adaptively
// grown. Keys are fixed 8-byte big-endian integers; values are 8-byte
// offsets into the pool's value area. Every node access goes through the
// mapping, touching real simulated cache lines.
package part

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// Node kinds.
const (
	kindN4 = iota + 1
	kindN16
	kindN48
	kindN256
	kindLeaf
)

// node sizes on PM (bytes).
const (
	sizeN4   = 8 + 4 + 4*8   // header + 4 key bytes + 4 children
	sizeN16  = 8 + 16 + 16*8 // header + 16 key bytes + 16 children
	sizeN48  = 8 + 256 + 48*8
	sizeN256 = 8 + 256*8
	sizeLeaf = 8 + 8 + 8 // header + key + value
)

// keyBytes is how many bytes a node kind keeps between its header and its
// child slots: N4's and N16's keys, N48's index. nodeSize is its size.
var (
	keyBytes = [...]int64{kindN4: 4, kindN16: 16, kindN48: 256}
	nodeSize = [...]int64{kindN4: sizeN4, kindN16: sizeN16, kindN48: sizeN48, kindN256: sizeN256}
)

// ErrFull indicates pool exhaustion.
var ErrFull = errors.New("part: pool full")

// Tree is a P-ART over a memory-mapped pool file. It is not safe for
// concurrent use: every node access goes through the tree's own scratch.
type Tree struct {
	m    *vmm.Mapping
	size int64
	bump int64
	root int64 // offset of root node, 0 = empty

	// buf is the bytes each node access reads into or stores from, as
	// large as the largest node grow reads, and pairs the children a
	// growing node moves: the mapping takes slices, and a per-call array
	// handed to it would escape to the heap on every access. Each access
	// is done with them before the next.
	buf   [sizeN48]byte
	pairs []pair
}

// pair is one child of a node that grow moves: its radix byte and offset.
type pair struct {
	b byte
	c int64
}

// New creates a pool file of poolSize bytes on fs (via the vmmalloc-style
// pattern: fallocate then mmap), pre-faults it, and returns an empty tree.
func New(ctx *sim.Ctx, fs vfs.FS, path string, poolSize int64) (*Tree, error) {
	f, err := fs.Create(ctx, path)
	if err != nil {
		return nil, err
	}
	if err := f.Fallocate(ctx, 0, poolSize); err != nil {
		return nil, err
	}
	// §5.4: "P-ART ... pre-faults this region during initialization to
	// avoid page faults in the critical path." — Preload prefaults the
	// whole pool at map time; stores flush as they land (the tree's
	// persistence story is clwb-per-store, not batched msync).
	m, err := vmm.Map(ctx, f, poolSize, vmm.Config{
		Mode:        vmm.ModeShared,
		Sync:        vmm.SyncImmediate,
		MapFullFile: true,
		Preload:     true,
	})
	if err != nil {
		return nil, err
	}
	return &Tree{m: m, size: poolSize, bump: 64}, nil
}

func (t *Tree) alloc(n int64) (int64, error) {
	// Cache-line align nodes.
	n = (n + 63) / 64 * 64
	if t.bump+n > t.size {
		return 0, ErrFull
	}
	off := t.bump
	t.bump += n
	return off, nil
}

// header: kind u8 | childCount u8 | pad[6].
func (t *Tree) readHeader(ctx *sim.Ctx, off int64) (kind byte, count int, err error) {
	h := t.buf[:8]
	if err := t.m.Read(ctx, h, off); err != nil {
		return 0, 0, err
	}
	return h[0], int(h[1]), nil
}

func (t *Tree) writeHeader(ctx *sim.Ctx, off int64, kind byte, count int) error {
	h := t.buf[:8]
	clear(h)
	h[0] = kind
	h[1] = byte(count)
	return t.m.Write(ctx, h, off)
}

func (t *Tree) newLeaf(ctx *sim.Ctx, key, val uint64) (int64, error) {
	off, err := t.alloc(sizeLeaf)
	if err != nil {
		return 0, err
	}
	b := t.buf[:sizeLeaf]
	clear(b)
	b[0] = kindLeaf
	binary.LittleEndian.PutUint64(b[8:], key)
	binary.LittleEndian.PutUint64(b[16:], val)
	return off, t.m.Write(ctx, b, off)
}

func (t *Tree) leafKV(ctx *sim.Ctx, off int64) (uint64, uint64, error) {
	b := t.buf[:16]
	if err := t.m.Read(ctx, b, off+8); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), nil
}

// readByte, readWord, writeByte and writeWord move one key byte or one
// 8-byte child pointer or value through the mapping.
func (t *Tree) readByte(ctx *sim.Ctx, off int64) (byte, error) {
	err := t.m.Read(ctx, t.buf[:1], off)
	return t.buf[0], err
}

func (t *Tree) readWord(ctx *sim.Ctx, off int64) (int64, error) {
	err := t.m.Read(ctx, t.buf[:8], off)
	return int64(binary.LittleEndian.Uint64(t.buf[:8])), err
}

func (t *Tree) writeByte(ctx *sim.Ctx, b byte, off int64) error {
	t.buf[0] = b
	return t.m.Write(ctx, t.buf[:1], off)
}

func (t *Tree) writeWord(ctx *sim.Ctx, v uint64, off int64) error {
	binary.LittleEndian.PutUint64(t.buf[:8], v)
	return t.m.Write(ctx, t.buf[:8], off)
}

// keyByte extracts radix byte d (0 = most significant) of the 8-byte key.
func keyByte(key uint64, d int) byte { return byte(key >> uint(56-8*d)) }

// Insert adds key → val (replacing an existing value).
func (t *Tree) Insert(ctx *sim.Ctx, key, val uint64) error {
	if t.root == 0 {
		leaf, err := t.newLeaf(ctx, key, val)
		if err != nil {
			return err
		}
		t.root = leaf
		return nil
	}
	return t.insert(ctx, &t.root, key, val, 0)
}

func (t *Tree) insert(ctx *sim.Ctx, ref *int64, key, val uint64, depth int) error {
	kind, _, err := t.readHeader(ctx, *ref)
	if err != nil {
		return err
	}
	if kind == kindLeaf {
		ek, _, err := t.leafKV(ctx, *ref)
		if err != nil {
			return err
		}
		if ek == key {
			// Replace value in place (8B atomic store, PM-friendly).
			return t.writeWord(ctx, val, *ref+16)
		}
		// Split: new Node4 holding both leaves at the first differing byte.
		for keyByte(ek, depth) == keyByte(key, depth) {
			// Same radix byte: need an intermediate node chain.
			n4, err := t.alloc(sizeN4)
			if err != nil {
				return err
			}
			if err := t.writeHeader(ctx, n4, kindN4, 1); err != nil {
				return err
			}
			if err := t.setN4Slot(ctx, n4, 0, keyByte(key, depth), *ref); err != nil {
				return err
			}
			old := *ref
			*ref = n4
			// Child slot 0 of the chain node points at the old subtree;
			// recurse into it one radix level down.
			return t.insertIntoNode(ctx, n4, key, val, depth+1, old)
		}
		n4, err := t.alloc(sizeN4)
		if err != nil {
			return err
		}
		leaf, err := t.newLeaf(ctx, key, val)
		if err != nil {
			return err
		}
		if err := t.writeHeader(ctx, n4, kindN4, 2); err != nil {
			return err
		}
		if err := t.setN4Slot(ctx, n4, 0, keyByte(ek, depth), *ref); err != nil {
			return err
		}
		if err := t.setN4Slot(ctx, n4, 1, keyByte(key, depth), leaf); err != nil {
			return err
		}
		*ref = n4
		return nil
	}
	// Interior node: find or add the child for this radix byte.
	b := keyByte(key, depth)
	child, slot, err := t.findChild(ctx, *ref, kind, b)
	if err != nil {
		return err
	}
	if child != 0 {
		newChild := child
		if err := t.insert(ctx, &newChild, key, val, depth+1); err != nil {
			return err
		}
		if newChild != child {
			if err := t.updateChild(ctx, *ref, kind, slot, b, newChild); err != nil {
				return err
			}
		}
		return nil
	}
	leaf, err := t.newLeaf(ctx, key, val)
	if err != nil {
		return err
	}
	grown, err := t.addChild(ctx, *ref, kind, b, leaf)
	if err != nil {
		return err
	}
	if grown != 0 {
		*ref = grown
	}
	return nil
}

// insertIntoNode recurses into the subtree `old` hanging off a fresh chain
// node at `node`.
func (t *Tree) insertIntoNode(ctx *sim.Ctx, node int64, key, val uint64, depth int, old int64) error {
	sub := old
	if err := t.insert(ctx, &sub, key, val, depth); err != nil {
		return err
	}
	if sub != old {
		// The subtree root changed: rewrite slot 0's child pointer.
		kind, _, err := t.readHeader(ctx, node)
		if err != nil {
			return err
		}
		return t.updateChild(ctx, node, kind, 0, keyByte(key, depth-1), sub)
	}
	return nil
}

// --- node layout accessors -------------------------------------------------

func (t *Tree) setN4Slot(ctx *sim.Ctx, node int64, slot int, b byte, child int64) error {
	if err := t.writeByte(ctx, b, node+8+int64(slot)); err != nil {
		return err
	}
	return t.writeWord(ctx, uint64(child), node+12+int64(slot)*8)
}

// findChild returns (childOffset, slot) for radix byte b, 0 if absent.
func (t *Tree) findChild(ctx *sim.Ctx, node int64, kind byte, b byte) (int64, int, error) {
	switch kind {
	case kindN4, kindN16:
		_, count, err := t.readHeader(ctx, node)
		if err != nil {
			return 0, 0, err
		}
		n := keyBytes[kind]
		keys := t.buf[:n]
		if err := t.m.Read(ctx, keys, node+8); err != nil {
			return 0, 0, err
		}
		for i := 0; i < count; i++ {
			if keys[i] == b {
				c, err := t.readWord(ctx, node+8+n+int64(i)*8)
				if err != nil {
					return 0, 0, err
				}
				return c, i, nil
			}
		}
		return 0, -1, nil
	case kindN48:
		idx, err := t.readByte(ctx, node+8+int64(b))
		if err != nil {
			return 0, 0, err
		}
		if idx == 0 {
			return 0, -1, nil
		}
		slot := int(idx) - 1
		c, err := t.readWord(ctx, node+8+256+int64(slot)*8)
		if err != nil {
			return 0, 0, err
		}
		return c, slot, nil
	case kindN256:
		c, err := t.readWord(ctx, node+8+int64(b)*8)
		if err != nil {
			return 0, 0, err
		}
		return c, int(b), nil
	}
	return 0, -1, errors.New("part: bad node kind")
}

// updateChild rewrites the child pointer in an existing slot.
func (t *Tree) updateChild(ctx *sim.Ctx, node int64, kind byte, slot int, b byte, child int64) error {
	switch kind {
	case kindN4, kindN16, kindN48:
		return t.writeWord(ctx, uint64(child), node+8+keyBytes[kind]+int64(slot)*8)
	case kindN256:
		return t.writeWord(ctx, uint64(child), node+8+int64(b)*8)
	}
	return errors.New("part: bad node kind")
}

// addChild inserts a new child, growing the node when full. Returns the
// offset of the replacement node if the node was grown, else 0.
func (t *Tree) addChild(ctx *sim.Ctx, node int64, kind byte, b byte, child int64) (int64, error) {
	_, count, err := t.readHeader(ctx, node)
	if err != nil {
		return 0, err
	}
	switch kind {
	case kindN4, kindN16:
		if int64(count) < keyBytes[kind] {
			if err := t.writeByte(ctx, b, node+8+int64(count)); err != nil {
				return 0, err
			}
			if err := t.writeWord(ctx, uint64(child), node+8+keyBytes[kind]+int64(count)*8); err != nil {
				return 0, err
			}
			return 0, t.writeHeader(ctx, node, kind, count+1)
		}
		return t.grow(ctx, node, kind, b, child)
	case kindN48:
		if count < 48 {
			if err := t.writeByte(ctx, byte(count+1), node+8+int64(b)); err != nil {
				return 0, err
			}
			if err := t.writeWord(ctx, uint64(child), node+8+256+int64(count)*8); err != nil {
				return 0, err
			}
			return 0, t.writeHeader(ctx, node, kindN48, count+1)
		}
		return t.grow(ctx, node, kindN48, b, child)
	case kindN256:
		if err := t.writeWord(ctx, uint64(child), node+8+int64(b)*8); err != nil {
			return 0, err
		}
		return 0, t.writeHeader(ctx, node, kindN256, count+1)
	}
	return 0, errors.New("part: bad node kind")
}

// grow copies a full node into the next-larger kind and adds the new child.
// It reads the node once and moves its children in radix order, the new
// child last. The larger node has room for them all, so its addChild calls
// never grow in turn: t.pairs is this call's alone.
func (t *Tree) grow(ctx *sim.Ctx, node int64, from byte, b byte, child int64) (int64, error) {
	buf := t.buf[:nodeSize[from]]
	if err := t.m.Read(ctx, buf, node); err != nil {
		return 0, err
	}
	slot := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[8+keyBytes[from]+int64(i)*8:])) }
	pairs := t.pairs[:0]
	if from == kindN48 {
		for rb, idx := range buf[8 : 8+256] {
			if idx != 0 {
				pairs = append(pairs, pair{byte(rb), slot(int(idx) - 1)})
			}
		}
	} else {
		for i, k := range buf[8 : 8+int(buf[1])] {
			pairs = append(pairs, pair{k, slot(i)})
		}
		slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(x.b, y.b) })
	}
	pairs = append(pairs, pair{b, child})
	t.pairs = pairs
	to := from + 1
	nn, err := t.alloc(nodeSize[to])
	if err != nil {
		return 0, err
	}
	if err := t.writeHeader(ctx, nn, to, 0); err != nil {
		return 0, err
	}
	for _, p := range pairs {
		if _, err := t.addChild(ctx, nn, to, p.b, p.c); err != nil {
			return 0, err
		}
	}
	return nn, nil
}

// Lookup returns the value stored at key.
func (t *Tree) Lookup(ctx *sim.Ctx, key uint64) (uint64, bool, error) {
	off := t.root
	depth := 0
	for off != 0 {
		kind, _, err := t.readHeader(ctx, off)
		if err != nil {
			return 0, false, err
		}
		if kind == kindLeaf {
			k, v, err := t.leafKV(ctx, off)
			if err != nil {
				return 0, false, err
			}
			return v, k == key, nil
		}
		child, _, err := t.findChild(ctx, off, kind, keyByte(key, depth))
		if err != nil {
			return 0, false, err
		}
		off = child
		depth++
	}
	return 0, false, nil
}
