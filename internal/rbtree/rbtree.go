// Package rbtree implements a generic left-leaning-free, classic red-black
// binary search tree.
//
// WineFS (the paper, §3.6) reuses the Linux kernel's rbtree for two jobs and
// this package serves the same two here: tracking free unaligned extents
// keyed by block offset inside each per-CPU allocation group, and indexing
// directory entries in DRAM. The implementation is a textbook CLRS
// red-black tree with parent pointers so deletion and neighbour queries
// (Floor/Ceiling/Prev/Next) are O(log n) without allocation.
//
// Deleted nodes are recycled: Delete scrubs the node and chains it on the
// tree's own free list, and Set takes from that list before it allocates.
// A tree that churns at a steady size — the hole pool under allocate/free,
// a directory under create/unlink — therefore stops allocating; the list
// never holds more nodes than the tree's peak size less its current one.
package rbtree

// Tree is an ordered map from K to V. The zero value is not usable; build
// trees with New. Not safe for concurrent mutation.
type Tree[K any, V any] struct {
	root *node[K, V]
	size int
	less func(a, b K) bool
	// free chains the recycled nodes through their right pointers; every
	// other field of a node on it is zero, so a dead key or value is not
	// kept reachable and nothing stale can leak into the node's next life.
	free *node[K, V]
}

type color bool

const (
	red   color = false
	black color = true
)

type node[K any, V any] struct {
	key                 K
	val                 V
	left, right, parent *node[K, V]
	color               color
}

// New returns an empty tree ordered by less.
func New[K any, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less}
}

// Len returns the number of entries.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored at key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.find(key)
	if n == nil {
		var zero V
		return zero, false
	}
	return n.val, true
}

func (t *Tree[K, V]) find(key K) *node[K, V] {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Set inserts key=val, replacing any existing value at key. It reports
// whether a new entry was created.
func (t *Tree[K, V]) Set(key K, val V) bool {
	var parent *node[K, V]
	link := &t.root
	for *link != nil {
		parent = *link
		switch {
		case t.less(key, parent.key):
			link = &parent.left
		case t.less(parent.key, key):
			link = &parent.right
		default:
			parent.val = val
			return false
		}
	}
	n := t.free
	if n != nil {
		t.free = n.right
	} else {
		n = new(node[K, V])
	}
	*n = node[K, V]{key: key, val: val, parent: parent, color: red}
	*link = n
	t.size++
	t.insertFixup(n)
	return true
}

// Delete removes key. It reports whether the key was present.
func (t *Tree[K, V]) Delete(key K) bool {
	n := t.find(key)
	if n == nil {
		return false
	}
	t.deleteNode(n)
	return true
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root.min()
	return n.key, n.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root.max()
	return n.key, n.val, true
}

// Floor returns the largest entry with key <= key.
func (t *Tree[K, V]) Floor(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(key, n.key) {
			n = n.left
		} else {
			best = n
			n = n.right
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Ceiling returns the smallest entry with key >= key.
func (t *Tree[K, V]) Ceiling(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(n.key, key) {
			n = n.right
		} else {
			best = n
			n = n.left
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.val, true
}

// Ascend calls fn on every entry in ascending key order until fn returns
// false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	for n := t.root.min(); n != nil; n = n.next() {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// AscendFrom calls fn on every entry with key >= start in ascending order
// until fn returns false.
func (t *Tree[K, V]) AscendFrom(start K, fn func(key K, val V) bool) {
	var n *node[K, V]
	c := t.root
	for c != nil {
		if t.less(c.key, start) {
			c = c.right
		} else {
			n = c
			c = c.left
		}
	}
	for ; n != nil; n = n.next() {
		if !fn(n.key, n.val) {
			return
		}
	}
}

func (n *node[K, V]) min() *node[K, V] {
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

func (n *node[K, V]) max() *node[K, V] {
	if n == nil {
		return nil
	}
	for n.right != nil {
		n = n.right
	}
	return n
}

func (n *node[K, V]) next() *node[K, V] {
	if n.right != nil {
		return n.right.min()
	}
	p := n.parent
	for p != nil && n == p.right {
		n = p
		p = p.parent
	}
	return p
}

func (t *Tree[K, V]) rotateLeft(x *node[K, V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[K, V]) rotateRight(x *node[K, V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[K, V]) insertFixup(z *node[K, V]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = black
}

func nodeColor[K any, V any](n *node[K, V]) color {
	if n == nil {
		return black
	}
	return n.color
}

func (t *Tree[K, V]) transplant(u, v *node[K, V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[K, V]) deleteNode(z *node[K, V]) {
	t.size--
	y := z
	yColor := y.color
	var x *node[K, V]
	var xParent *node[K, V]
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right.min()
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFixup(x, xParent)
	}
	// z is out of the tree (y, where there was one, took its place).
	*z = node[K, V]{right: t.free}
	t.free = z
}

func (t *Tree[K, V]) deleteFixup(x *node[K, V], parent *node[K, V]) {
	for x != t.root && nodeColor(x) == black {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if nodeColor(w) == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if nodeColor(w.left) == black && nodeColor(w.right) == black {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(w.right) == black {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
			}
		} else {
			w := parent.left
			if nodeColor(w) == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if nodeColor(w.right) == black && nodeColor(w.left) == black {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if nodeColor(w.left) == black {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
			}
		}
	}
	if x != nil {
		x.color = black
	}
}
