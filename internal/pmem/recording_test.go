package pmem

import (
	"testing"

	"repro/internal/sim"
)

// sameImage reports whether two images hold the same bytes.
func sameImage(a, b *Image) bool {
	same := true
	a.Diffs(b, func(int64, int64) bool { same = false; return false })
	return same
}

// record runs an operation of the given epoch sizes on a device with some
// bytes already on it: epoch e issues sizes[e] one-byte stores, to fresh
// addresses, one of them in a chunk nothing else backs.
func record(t *testing.T, sizes ...int) (d *Device, before *Image, rec *Recording) {
	t.Helper()
	d = New(16 << 20)
	d.WriteAt([]byte("base"), 0)
	before = d.Snapshot()
	ctx := sim.NewCtx(1, 0)
	rec, err := d.Record(func() error {
		off := int64(64)
		for e, n := range sizes {
			if e > 0 {
				d.Fence(ctx)
			}
			for i := 0; i < n; i++ {
				d.WriteAt([]byte{byte(e + 1)}, off)
				off += 64
			}
		}
		d.WriteAt([]byte("far"), 6<<20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, before, rec
}

// TestRecording pins the crash images a Recording builds: the cuts at its
// ends, ACE's subsets and how they draw from the generator, and tearing.
func TestRecording(t *testing.T) {
	d, before, rec := record(t, 2, 0, 3)
	if rec.Last() != 2 || len(rec.Epoch(1)) != 0 || len(rec.Epoch(2)) != 4 {
		t.Fatalf("last epoch %d with %d and %d stores, want 2 with 0 and 4", rec.Last(), len(rec.Epoch(1)), len(rec.Epoch(2)))
	}
	if !sameImage(rec.Cut(0), before) || !sameImage(rec.Base, before) {
		t.Fatal("Cut(0) is not the device before the operation")
	}
	if !sameImage(rec.Cut(rec.Last()+1), d.Snapshot()) {
		t.Fatal("Cut(Last()+1) is not the device after the operation")
	}
	for e := 0; e <= rec.Last(); e++ {
		rng := sim.NewRand(uint64(e))
		if !sameImage(rec.Torn(e, 0, rng), rec.Cut(e)) {
			t.Errorf("Torn(%d, 0) is not Cut(%d)", e, e)
		}
		if !sameImage(rec.Torn(e, 1, rng), rec.Cut(e+1)) {
			t.Errorf("Torn(%d, 1) is not Cut(%d)", e, e+1)
		}
	}

	// Every epoch of n ≤ log2(maxSubsets) stores yields all 2ⁿ subsets —
	// an epoch of none yields Cut(e) once — the none-persisted and the
	// all-persisted among them, and then the device after the operation.
	counts := map[int]int{}
	var none, all, after int
	rec.Crashes(16, sim.NewRand(1), func(img *Image, e int, mask uint64) bool {
		counts[e]++
		switch {
		case e > rec.Last():
			if mask == 0 && sameImage(img, rec.Cut(e)) {
				after++
			}
		case mask == 0 && sameImage(img, rec.Cut(e)):
			none++
			if len(rec.Epoch(e)) == 0 {
				all++
			}
		case mask == 1<<len(rec.Epoch(e))-1 && sameImage(img, rec.Cut(e+1)):
			all++
		}
		return true
	})
	if counts[0] != 4 || counts[1] != 1 || counts[2] != 16 || counts[3] != 1 || len(counts) != 4 {
		t.Fatalf("crash states per epoch %v, want map[0:4 1:1 2:16 3:1]", counts)
	}
	if none != 3 || all != 3 || after != 1 {
		t.Fatalf("%d none-persisted, %d all-persisted and %d after states, want 3, 3 and 1", none, all, after)
	}

	// An epoch too large to enumerate is sampled: none, all, and then the
	// generator's draws, masked to the epoch's stores.
	_, _, rec = record(t, 30)
	draws := sim.NewRand(7)
	var masks []uint64
	rec.Crashes(64, sim.NewRand(7), func(img *Image, e int, mask uint64) bool {
		if e == 0 {
			masks = append(masks, mask)
		}
		return true
	})
	if len(masks) != 64 || masks[0] != 0 || masks[1] != 1<<31-1 {
		t.Fatalf("%d sampled subsets starting %x, %x; want 64 starting none and all", len(masks), masks[0], masks[1])
	}
	for i, m := range masks[2:] {
		if want := draws.Uint64() & (1<<31 - 1); m != want {
			t.Fatalf("sampled subset %d is %x, want the generator's %x", i+2, m, want)
		}
	}
	stopped := 0
	rec.Crashes(64, sim.NewRand(7), func(*Image, int, uint64) bool { stopped++; return false })
	if stopped != 1 {
		t.Fatalf("Crashes built %d states after fn returned false, want none", stopped-1)
	}
}
