package rbtree_test

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rbtree"
)

func intLess(a, b int) bool { return a < b }

// Every test below runs on a fresh tree and on a recycled one: a tree that
// has held `recycled` entries and lost them all, so that its first inserts
// are served from the free list. Recycling must be invisible.
const recycled = 300

func trees[V any](t *testing.T, run func(t *testing.T, tr *rbtree.Tree[int, V])) {
	t.Run("fresh", func(t *testing.T) { run(t, rbtree.New[int, V](intLess)) })
	t.Run("recycled", func(t *testing.T) {
		tr := rbtree.New[int, V](intLess)
		var v V
		for k := 0; k < recycled; k++ {
			tr.Set(k*7919%recycled, v)
		}
		for k := 0; k < recycled; k++ {
			tr.Delete(k)
		}
		if n, _ := tr.FreeNodes(func(int, V) bool { return true }); tr.Len() != 0 || n != recycled {
			t.Fatalf("emptied tree: len %d, %d nodes on the free list, want 0 and %d", tr.Len(), n, recycled)
		}
		run(t, tr)
	})
}

func TestBasicOps(t *testing.T) { trees(t, testBasicOps) }

func testBasicOps(t *testing.T, tr *rbtree.Tree[int, string]) {
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if !tr.Set(1, "one") {
		t.Fatal("first Set reported existing")
	}
	if tr.Set(1, "uno") {
		t.Fatal("second Set reported new")
	}
	v, ok := tr.Get(1)
	if !ok || v != "uno" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if !tr.Delete(1) || tr.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after delete", tr.Len())
	}
}

func TestOrderedIteration(t *testing.T) { trees(t, testOrderedIteration) }

func testOrderedIteration(t *testing.T, tr *rbtree.Tree[int, int]) {
	vals := []int{5, 3, 9, 1, 7, 2, 8, 6, 4, 0}
	for _, v := range vals {
		tr.Set(v, v*10)
	}
	var got []int
	tr.Ascend(func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	if !sort.IntsAreSorted(got) || len(got) != len(vals) {
		t.Fatalf("ascend order wrong: %v", got)
	}
}

func TestMinMaxFloorCeiling(t *testing.T) { trees(t, testMinMaxFloorCeiling) }

func testMinMaxFloorCeiling(t *testing.T, tr *rbtree.Tree[int, int]) {
	for _, v := range []int{10, 20, 30, 40} {
		tr.Set(v, v)
	}
	if k, _, _ := tr.Min(); k != 10 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := tr.Max(); k != 40 {
		t.Fatalf("Max = %d", k)
	}
	if k, _, ok := tr.Floor(25); !ok || k != 20 {
		t.Fatalf("Floor(25) = %d, %v", k, ok)
	}
	if k, _, ok := tr.Floor(10); !ok || k != 10 {
		t.Fatalf("Floor(10) = %d, %v", k, ok)
	}
	if _, _, ok := tr.Floor(5); ok {
		t.Fatal("Floor(5) should not exist")
	}
	if k, _, ok := tr.Ceiling(25); !ok || k != 30 {
		t.Fatalf("Ceiling(25) = %d, %v", k, ok)
	}
	if _, _, ok := tr.Ceiling(45); ok {
		t.Fatal("Ceiling(45) should not exist")
	}
}

func TestAscendFrom(t *testing.T) { trees(t, testAscendFrom) }

func testAscendFrom(t *testing.T, tr *rbtree.Tree[int, int]) {
	for i := 0; i < 100; i += 10 {
		tr.Set(i, i)
	}
	var got []int
	tr.AscendFrom(35, func(k, v int) bool {
		got = append(got, k)
		return len(got) < 3
	})
	want := []int{40, 50, 60}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("AscendFrom = %v, want %v", got, want)
	}
}

func TestInvariantsUnderChurn(t *testing.T) { trees(t, testInvariantsUnderChurn) }

func testInvariantsUnderChurn(t *testing.T, tr *rbtree.Tree[int, int]) {
	present := make(map[int]bool)
	rng := uint64(12345)
	next := func() int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % 2000
	}
	for i := 0; i < 20000; i++ {
		k := next()
		if present[k] {
			tr.Delete(k)
			delete(present, k)
		} else {
			tr.Set(k, k)
			present[k] = true
		}
		if i%500 == 0 {
			if tr.CheckInvariants() < 0 {
				t.Fatalf("red-black invariants violated at step %d", i)
			}
			if tr.Len() != len(present) {
				t.Fatalf("size mismatch: tree=%d map=%d", tr.Len(), len(present))
			}
		}
	}
	// Final full content check.
	count := 0
	tr.Ascend(func(k, v int) bool {
		if !present[k] {
			t.Fatalf("tree has unexpected key %d", k)
		}
		count++
		return true
	})
	if count != len(present) {
		t.Fatalf("iteration count %d != %d", count, len(present))
	}
}

func TestPropertySortedIteration(t *testing.T) {
	// Property: for any input sequence, iteration visits exactly the set of
	// distinct keys in sorted order and invariants hold.
	trees(t, testPropertySortedIteration)
}

func testPropertySortedIteration(t *testing.T, tr *rbtree.Tree[int, bool]) {
	f := func(keys []int16) bool {
		for k, _, ok := tr.Min(); ok; k, _, ok = tr.Min() {
			tr.Delete(k) // the last round's entries: every round starts empty, its nodes recycled
		}
		set := make(map[int]bool)
		for _, k16 := range keys {
			k := int(k16)
			tr.Set(k, true)
			set[k] = true
		}
		if tr.CheckInvariants() < 0 {
			return false
		}
		if tr.Len() != len(set) {
			return false
		}
		prev := -1 << 30
		ok := true
		tr.Ascend(func(k int, v bool) bool {
			if k <= prev || !set[k] {
				ok = false
				return false
			}
			prev = k
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeleteHalf(t *testing.T) {
	// Property: deleting any subset leaves exactly the complement, with
	// invariants intact.
	trees(t, testPropertyDeleteHalf)
}

func testPropertyDeleteHalf(t *testing.T, tr *rbtree.Tree[int, int]) {
	f := func(keys []uint8) bool {
		for k, _, ok := tr.Min(); ok; k, _, ok = tr.Min() {
			tr.Delete(k)
		}
		set := make(map[int]bool)
		for _, k := range keys {
			tr.Set(int(k), int(k))
			set[int(k)] = true
		}
		i := 0
		for k := range set {
			if i%2 == 0 {
				if !tr.Delete(k) {
					return false
				}
				delete(set, k)
			}
			i++
		}
		if tr.CheckInvariants() < 0 || tr.Len() != len(set) {
			return false
		}
		for k := range set {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeRecycling churns a tree through ten times its peak size in
// inserts and deletes. Throughout: the red-black invariants and the
// contents hold; the free list is exactly the nodes the tree has shed from
// its peak, so a tree at a steady size allocates nothing and the list
// cannot outgrow the tree; and every node waiting on it is scrubbed — no
// key, no value, no child or parent pointer from its last life, which a
// reuse could otherwise resurrect (and which would keep dead strings
// reachable in a directory index).
func TestNodeRecycling(t *testing.T) {
	const peak = 500
	tr := rbtree.New[int, string](intLess)
	present := make(map[int]string)
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	scrubbed := func(k int, v string) bool { return k == 0 && v == "" }
	high := 0 // the most entries the tree has held
	check := func(step int) {
		t.Helper()
		if tr.CheckInvariants() < 0 {
			t.Fatalf("step %d: red-black invariants violated", step)
		}
		if tr.Len() != len(present) {
			t.Fatalf("step %d: tree holds %d entries, want %d", step, tr.Len(), len(present))
		}
		n, clean := tr.FreeNodes(scrubbed)
		if !clean {
			t.Fatalf("step %d: a node on the free list kept a key, value, colour or pointer", step)
		}
		if n != high-tr.Len() {
			t.Fatalf("step %d: %d nodes on the free list, want peak %d - size %d", step, n, high, tr.Len())
		}
	}
	for step := 0; step < 10*peak; step++ {
		// Drift between a third of the peak and the peak, so nodes are shed
		// and taken back in long runs as well as one by one.
		grow := len(present) < peak/3 || len(present) < peak && (step/peak)%2 == 0
		if k := next(4 * peak); grow {
			v := string(rune('a' + k%26))
			tr.Set(k, v)
			present[k] = v
		} else {
			for k := range present { // any one
				tr.Delete(k)
				delete(present, k)
				break
			}
		}
		high = max(high, tr.Len())
		if step%97 == 0 {
			check(step)
		}
	}
	check(10 * peak)
	tr.Ascend(func(k int, v string) bool {
		if present[k] != v {
			t.Fatalf("key %d holds %q, want %q: a recycled node kept a stale value", k, v, present[k])
		}
		return true
	})
	for k := range present {
		tr.Delete(k)
	}
	if n, clean := tr.FreeNodes(scrubbed); n != high || !clean {
		t.Fatalf("emptied: %d scrubbed=%v nodes on the free list, want all %d the tree ever held", n, clean, high)
	}
	// A tree at a steady size allocates nothing.
	for k := 0; k < high; k++ {
		tr.Set(k, "x")
	}
	k := 0
	if a := testing.AllocsPerRun(1000, func() { tr.Delete(k); tr.Set(k+high, "y"); k++ }); a != 0 {
		t.Fatalf("delete+insert at a steady size: %v allocs, want 0", a)
	}
}

// BenchmarkSteadyChurn deletes and inserts at a steady size of 4,096
// entries — the hole pool under allocate/free: the node the delete sheds is
// the node the insert takes.
func BenchmarkSteadyChurn(b *testing.B) {
	const size = 4096
	tr := rbtree.New[int, int](intLess)
	for k := 0; k < size; k++ {
		tr.Set(k*7919%size, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Delete(i % size)
		tr.Set(i%size, i)
	}
}
