package rbtree

// CheckInvariants verifies the red-black properties and the key order. It
// returns the tree's black-height, or -1 if any invariant is violated.
func (t *Tree[K, V]) CheckInvariants() int {
	if t.root == nil {
		return 0
	}
	if t.root.color != black {
		return -1
	}
	return t.check(t.root)
}

func (t *Tree[K, V]) check(n *node[K, V]) int {
	if n == nil {
		return 1
	}
	if n.color == red {
		if nodeColor(n.left) == red || nodeColor(n.right) == red {
			return -1
		}
	}
	if n.left != nil {
		if n.left.parent != n || !t.less(n.left.key, n.key) {
			return -1
		}
	}
	if n.right != nil {
		if n.right.parent != n || !t.less(n.key, n.right.key) {
			return -1
		}
	}
	lh := t.check(n.left)
	rh := t.check(n.right)
	if lh == -1 || rh == -1 || lh != rh {
		return -1
	}
	if n.color == black {
		lh++
	}
	return lh
}

// FreeNodes walks the recycle list: how many nodes wait on it, and whether
// every one of them is scrubbed — zero but for the link to the next.
func (t *Tree[K, V]) FreeNodes(isZero func(K, V) bool) (n int, scrubbed bool) {
	scrubbed = true
	for f := t.free; f != nil; f = f.right {
		n++
		if f.left != nil || f.parent != nil || f.color != red || !isZero(f.key, f.val) {
			scrubbed = false
		}
	}
	return n, scrubbed
}
