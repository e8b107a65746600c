package rbtree

// CheckInvariants exposes the red-black invariant checker to tests. It
// returns the tree's black-height, or -1 if any invariant is violated.
func (t *Tree[K, V]) CheckInvariants() int { return t.checkInvariants() }

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
