package mmu

import (
	"testing"

	"repro/internal/sim"
)

// Engine microbenchmarks for the MMU hot paths: the LLC/TLB assoc cache
// (every simulated memory line funnels through touch/touchRun), the fault
// path, and the batched fine-access path. Run via `make bench-engine`.

func BenchmarkAssocTouch(b *testing.B) {
	a := newAssoc(1536, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// 16-key working set: mostly MRU hits, some reordering — the shape
		// of a TLB under a loop over a few pages.
		a.touch(uint64(i & 15))
	}
}

// BenchmarkAssocTouchRun charges a 64-line run (one 4KiB page of cache
// lines) per iteration — the unit the batched access path hands to the
// LLC under one hold of the address space's cache lock.
func BenchmarkAssocTouchRun(b *testing.B) {
	a := newAssoc(8<<20/64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.touchRun(uint64(i&7)*64, 64)
	}
}

func BenchmarkAssocTouchLoop64(b *testing.B) {
	a := newAssoc(8<<20/64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := uint64(i&7) * 64
		for j := uint64(0); j < 64; j++ {
			a.touch(base + j)
		}
	}
}

// BenchmarkMappingFault measures the minor-fault path: TLB flush forces
// every access to re-fault, so each iteration pays ensureMapped + fault
// handler + page-table charging.
func BenchmarkMappingFault(b *testing.B) {
	d, as := newEnv(64 << 20)
	h := &testHandler{extents: []Extent{{0, 0, 64 << 20}}}
	m := as.NewMapping(64<<20, h)
	ctx := sim.NewCtx(1, 0)
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Invalidate()
		as.FlushTLB()
		if err := m.Read(ctx, buf, int64(i&7)*HugePage); err != nil {
			b.Fatal(err)
		}
	}
	_ = d
}

// BenchmarkMappingRead1K is the batched fine-access path on a warm
// mapping: one translate per granule, arithmetic TLB hits, one LLC
// touchRun, one device copy. 1KiB stays under streamThreshold so the
// fine path (not the streaming path) runs.
func BenchmarkMappingRead1K(b *testing.B) {
	benchMappingAccess(b, false, false)
}

func BenchmarkMappingWrite1K(b *testing.B) {
	benchMappingAccess(b, true, false)
}

// BenchmarkMappingRead1KExact is the per-line reference arm — the loop
// the batched path replaced. The ratio of this to BenchmarkMappingRead1K
// is the batching speedup.
func BenchmarkMappingRead1KExact(b *testing.B) {
	benchMappingAccess(b, false, true)
}

func benchMappingAccess(b *testing.B, write, exact bool) {
	d, as := newEnv(64 << 20)
	as.Exact = exact
	h := &testHandler{extents: []Extent{{0, 0, 64 << 20}}}
	m := as.NewMapping(64<<20, h)
	ctx := sim.NewCtx(1, 0)
	buf := make([]byte, 1024)
	// Warm the mapping so iterations measure access, not faults. Keep the
	// span under streamThreshold's granule count so the fine path runs.
	if err := m.Touch(ctx, 0, 16*HugePage, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i&255) * 1024
		var err error
		if write {
			err = m.Write(ctx, buf, off)
		} else {
			err = m.Read(ctx, buf, off)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = d
}

// BenchmarkMappingRandomRead64 is mmap_aged's access shape: random 64-byte
// loads over a prefaulted 256MiB hugepage mapping of written device
// memory, so each load pays the host's memory hierarchy for the device
// bytes as well as the TLB and LLC model.
func BenchmarkMappingRandomRead64(b *testing.B) {
	const size = 256 << 20
	d, as := newEnv(size)
	fill := make([]byte, HugePage)
	for i := range fill {
		fill[i] = byte(i)
	}
	for off := int64(0); off < size; off += HugePage {
		d.WriteAt(fill, off)
	}
	m := as.NewMapping(size, &testHandler{extents: []Extent{{0, 0, size}}})
	ctx := sim.NewCtx(1, 0)
	if err := m.Prefault(ctx); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRand(1)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Read(ctx, buf, rng.Int63n(size/64)*64); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d.Release()
}
