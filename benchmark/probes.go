package main

import (
	"fmt"
	"time"
)

// Below winefs and vmm nothing can be interposed from outside (Mkfs
// takes a concrete device), so the host cost of those layers is taken
// by calling their public functions directly, in a loop, with the
// sizes the workloads use. A probe reports host nanoseconds per call:
// the median of probeReps timings of probeCalls calls each.
const (
	probeReps  = 5
	probeCalls = 20_000
	probeDev   = 64 << 20
)

func timeCalls(call func(i int)) float64 {
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			call(i)
		}
		per[r] = float64(time.Since(t0)) / probeCalls
	}
	return median(per)
}

// runProbes returns the probe rows of the per-layer table.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	ctx := newCtx(1, 0)
	rng := newRand(1)
	var page [blockSize]byte
	var line [64]byte
	blockAt := func() int64 { return int64(rng.Intn(probeDev/blockSize)) * blockSize }

	dev := newDevice(probeDev)
	defer dev.Release()
	out["pmem.write4k_hns"] = timeCalls(func(int) { dev.Write(ctx, page[:], blockAt()) })
	out["pmem.read4k_hns"] = timeCalls(func(int) { dev.Read(ctx, page[:], blockAt()) })
	out["pmem.persist64_hns"] = timeCalls(func(int) {
		off := blockAt()
		dev.Write(ctx, line[:], off)
		dev.Flush(ctx, off, 64)
		dev.Fence(ctx)
	})

	slow := newSlow(probeDev)
	defer slow.Release()
	slow.Write(ctx, make([]byte, probeDev), 0)
	out["tier.slow_read4k_hns"] = timeCalls(func(int) { slow.Read(ctx, page[:], blockAt()) })

	lt := newLockTable()
	out["vfs.locktable_hns_per_call"] = timeCalls(func(i int) { lt.Lock(ctx, uint64(i%64)).Unlock(ctx) })

	res := newResource()
	out["sim.resource_use_hns"] = timeCalls(func(int) { res.Use(ctx, 100) })

	// The MMU probe goes through File.Mmap: a raw mmu.Mapping over a
	// fallocated, prefaulted file, so the loop times translation and the
	// device access and no fault.
	mdev := newDevice(probeDev)
	defer mdev.Release()
	fs, err := mkfsStrict(ctx, mdev, nil)
	if err != nil {
		return nil, fmt.Errorf("probe mkfs: %w", err)
	}
	f, err := fs.Create(ctx, "/probe")
	if err != nil {
		return nil, err
	}
	const mapped = probeDev / 4
	if err := f.Fallocate(ctx, 0, mapped); err != nil {
		return nil, err
	}
	m, err := f.Mmap(ctx, mapped)
	if err != nil {
		return nil, err
	}
	if err := m.Touch(ctx, 0, mapped, false); err != nil {
		return nil, err
	}
	var readErr error
	out["mmu.access64_hns"] = timeCalls(func(int) {
		if err := m.Read(ctx, line[:], int64(rng.Intn(mapped/64))*64); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		return nil, fmt.Errorf("probe mapped read: %w", readErr)
	}
	return out, nil
}
