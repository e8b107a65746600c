package pmem

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// sameDevice reports whether two devices hold the same bytes.
func sameDevice(a, b *Device) bool {
	same := true
	a.Diffs(b, func(int64, int64) bool { same = false; return false })
	return same
}

// head returns the first n bytes of dev.
func head(dev *Device, n int) []byte {
	b := make([]byte, n)
	dev.ReadAt(b, 0)
	return b
}

// record runs an operation of the given epoch sizes on a device with some
// bytes already on it: epoch e issues sizes[e] one-byte stores, to fresh
// addresses, one of them in a chunk nothing else backs.
func record(t *testing.T, sizes ...int) (d *Device, before *Device, rec *Recording) {
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

// recordLines runs one epoch of multi-line stores of 2s over a device that
// holds 1s in [0, 4096), some of them off line boundaries at either end; no
// two stores share a cache line.
func recordLines(t *testing.T) *Recording {
	t.Helper()
	d := New(16 << 20)
	d.WriteAt(bytes.Repeat([]byte{1}, 4096), 0)
	rec, err := d.Record(func() error {
		d.WriteAt(bytes.Repeat([]byte{2}, 1024), 0)
		d.WriteAt(bytes.Repeat([]byte{2}, 700), 1064)
		d.WriteAt(bytes.Repeat([]byte{2}, 1500), 2500)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecording pins the crash images a Recording builds: the cuts at its
// ends, ACE's subsets and how they draw from the generator, and tearing.
func TestRecording(t *testing.T) {
	d, before, rec := record(t, 2, 0, 3)
	if rec.Last() != 2 || len(rec.Epoch(1)) != 0 || len(rec.Epoch(2)) != 4 {
		t.Fatalf("last epoch %d with %d and %d stores, want 2 with 0 and 4", rec.Last(), len(rec.Epoch(1)), len(rec.Epoch(2)))
	}
	if !sameDevice(rec.Cut(0), before) || !sameDevice(rec.Base, before) {
		t.Fatal("Cut(0) is not the device before the operation")
	}
	if !sameDevice(rec.Cut(rec.Last()+1), d.Snapshot()) {
		t.Fatal("Cut(Last()+1) is not the device after the operation")
	}
	for e := 0; e <= rec.Last(); e++ {
		rng := sim.NewRand(uint64(e))
		if !sameDevice(rec.Torn(e, 0, rng), rec.Cut(e)) {
			t.Errorf("Torn(%d, 0) is not Cut(%d)", e, e)
		}
		if !sameDevice(rec.Torn(e, 1, rng), rec.Cut(e+1)) {
			t.Errorf("Torn(%d, 1) is not Cut(%d)", e, e+1)
		}
	}

	// Torn tears at cache-line granularity: each line keeps all or none of
	// what the epoch stored in it, and at keep=0.5 both happen.
	lines := recordLines(t)
	old, stored := head(lines.Cut(0), 4096), head(lines.Cut(1), 4096)
	torn := head(lines.Torn(0, 0.5, sim.NewRand(3)), 4096)
	kept := map[bool]int{}
	for line := 0; line < 4096; line += CacheLine {
		var olds, news int
		for i := line; i < line+CacheLine; i++ {
			switch {
			case old[i] == stored[i]:
				if torn[i] != old[i] {
					t.Fatalf("Torn changed byte %d, which the epoch never stored", i)
				}
			case torn[i] == old[i]:
				olds++
			case torn[i] == stored[i]:
				news++
			default:
				t.Fatalf("Torn invented byte %d = %d", i, torn[i])
			}
		}
		if olds > 0 && news > 0 {
			t.Fatalf("line %d kept %d of the epoch's bytes and dropped %d", line, news, olds)
		}
		if olds+news > 0 {
			kept[news > 0]++
		}
	}
	if kept[true] == 0 || kept[false] == 0 {
		t.Fatalf("Torn(0, 0.5) kept %d lines and dropped %d, want some of each", kept[true], kept[false])
	}

	// Every epoch of n ≤ log2(maxSubsets) stores yields all 2ⁿ subsets —
	// an epoch of none yields Cut(e) once — the none-persisted and the
	// all-persisted among them, and then the device after the operation.
	counts := map[int]int{}
	var none, all, after int
	rec.Crashes(16, sim.NewRand(1), func(img *Device, e int, mask uint64) bool {
		counts[e]++
		switch {
		case e > rec.Last():
			if mask == 0 && sameDevice(img, rec.Cut(e)) {
				after++
			}
		case mask == 0 && sameDevice(img, rec.Cut(e)):
			none++
			if len(rec.Epoch(e)) == 0 {
				all++
			}
		case mask == 1<<len(rec.Epoch(e))-1 && sameDevice(img, rec.Cut(e+1)):
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
	rec.Crashes(64, sim.NewRand(7), func(img *Device, e int, mask uint64) bool {
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
	rec.Crashes(64, sim.NewRand(7), func(*Device, int, uint64) bool { stopped++; return false })
	if stopped != 1 {
		t.Fatalf("Crashes built %d states after fn returned false, want none", stopped-1)
	}
}

// TestTornIsDeterministic: the same generator seed tears the same lines.
func TestTornIsDeterministic(t *testing.T) {
	rec := recordLines(t)
	a, b := rec.Torn(0, 0.5, sim.NewRand(42)), rec.Torn(0, 0.5, sim.NewRand(42))
	if !sameDevice(a, b) {
		t.Fatal("Torn with the same seed built two different images")
	}
	if sameDevice(a, rec.Cut(0)) || sameDevice(a, rec.Cut(1)) {
		t.Fatal("Torn(0, 0.5) kept all or none of the epoch (seed pathological?)")
	}
}

// TestTearStoresOffline checks the tearing helper on its own: keep=0 drops
// every store, keep=1 passes them through whole, and keep=0.5 leaves
// pieces that start and end on a store's ends or on line boundaries and
// carry only the store's own bytes.
func TestTearStoresOffline(t *testing.T) {
	stores := []Store{
		{Off: 0, Data: bytes.Repeat([]byte{1}, 256), Epoch: 1},
		{Off: 4096 + 40, Data: bytes.Repeat([]byte{2}, 300), Epoch: 1},
	}
	if out := tearLines(stores, 0, sim.NewRand(5)); len(out) != 0 {
		t.Fatalf("keep=0: %+v", out)
	}
	out := tearLines(stores, 1, sim.NewRand(5))
	if len(out) != len(stores) {
		t.Fatalf("keep=1: %d pieces, want %d", len(out), len(stores))
	}
	for i := range out {
		if out[i].Off != stores[i].Off || !bytes.Equal(out[i].Data, stores[i].Data) || out[i].Epoch != 1 {
			t.Fatalf("keep=1: piece %d = %+v", i, out[i])
		}
	}
	out = tearLines(stores, 0.5, sim.NewRand(5))
	if len(out) == 0 {
		t.Fatal("keep=0.5 dropped everything (seed pathological?)")
	}
	kept := 0
	for _, p := range out {
		var s *Store
		for i := range stores {
			if p.Off >= stores[i].Off && p.Off+int64(len(p.Data)) <= stores[i].Off+int64(len(stores[i].Data)) {
				s = &stores[i]
			}
		}
		if s == nil {
			t.Fatalf("piece [%d,+%d) lies outside every store", p.Off, len(p.Data))
		}
		end, sEnd := p.Off+int64(len(p.Data)), s.Off+int64(len(s.Data))
		if (p.Off != s.Off && p.Off%CacheLine != 0) || (end != sEnd && end%CacheLine != 0) {
			t.Fatalf("piece [%d,%d) of store [%d,%d) is not cut on lines", p.Off, end, s.Off, sEnd)
		}
		if !bytes.Equal(p.Data, s.Data[p.Off-s.Off:end-s.Off]) || p.Epoch != s.Epoch {
			t.Fatalf("piece at %d does not carry its store's bytes", p.Off)
		}
		kept += len(p.Data)
	}
	if kept == 256+300 {
		t.Fatal("keep=0.5 kept every line (seed pathological?)")
	}
}
