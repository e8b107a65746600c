// Package apps_test exercises the application analogues end-to-end on
// WineFS and verifies the behaviours the paper attributes to each.
package apps_test

import (
	"bytes"
	"testing"

	"repro/internal/apps/lmdb"
	"repro/internal/apps/part"
	"repro/internal/apps/pmemkv"
	"repro/internal/apps/rocksdb"
	"repro/internal/ext4dax"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

func wineFS(t *testing.T, size int64) (vfs.FS, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(size)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctx
}

func TestLMDBPutGet(t *testing.T) {
	fs, ctx := wineFS(t, 512<<20)
	db, err := lmdb.Open(ctx, fs, lmdb.Options{MapSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	val := make([]byte, 1024)
	for i := uint64(0); i < n; i++ {
		for j := range val {
			val[j] = byte(i)
		}
		if err := db.Put(ctx, i, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	buf := make([]byte, 1024)
	for _, k := range []uint64{0, 1, n / 2, n - 1} {
		got, err := db.Get(ctx, k, buf)
		if err != nil || got != 1024 {
			t.Fatalf("get %d: n=%d err=%v", k, got, err)
		}
		if buf[0] != byte(k) || buf[1023] != byte(k) {
			t.Fatalf("get %d: wrong content %d", k, buf[0])
		}
	}
	if _, err := db.Get(ctx, 999999, buf); err != vfs.ErrNotExist {
		t.Fatalf("missing key: %v", err)
	}
}

func TestLMDBBatchedSequential(t *testing.T) {
	// fillseqbatch: batches of sequential keys — LMDB's best case.
	fs, ctx := wineFS(t, 512<<20)
	db, _ := lmdb.Open(ctx, fs, lmdb.Options{MapSize: 128 << 20})
	var keys []uint64
	var vals [][]byte
	k := uint64(0)
	for b := 0; b < 20; b++ {
		keys = keys[:0]
		vals = vals[:0]
		for i := 0; i < 100; i++ {
			keys = append(keys, k)
			vals = append(vals, bytes.Repeat([]byte{byte(k % 251)}, 1000))
			k++
		}
		if err := db.PutBatch(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1000)
	n, err := db.Get(ctx, 1234, buf)
	if err != nil || n != 1000 || buf[0] != byte(1234%251) {
		t.Fatalf("get after batches: %d %v", n, err)
	}
}

func TestLMDBSparseFaultBehaviour(t *testing.T) {
	// The paper's LMDB claim: ftruncate-based growth means page faults do
	// allocation. On WineFS the faults should be served with hugepages.
	fs, ctx := wineFS(t, 512<<20)
	ctx.Reset()
	db, _ := lmdb.Open(ctx, fs, lmdb.Options{MapSize: 64 << 20})
	val := make([]byte, 4096)
	for i := uint64(0); i < 1000; i++ {
		if err := db.Put(ctx, i, val); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Counters.HugeFaults == 0 {
		t.Fatal("WineFS should serve LMDB's sparse faults with hugepages")
	}
	if ctx.Counters.PageFaults > ctx.Counters.HugeFaults*16 {
		t.Fatalf("too many base faults: base=%d huge=%d",
			ctx.Counters.PageFaults, ctx.Counters.HugeFaults)
	}
}

func TestPmemKVGrowsPools(t *testing.T) {
	fs, ctx := wineFS(t, 1<<30)
	db, err := pmemkv.OpenSized(ctx, fs, "/pmemkv", pmemkv.SegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 4096)
	// Write more than one 128MiB segment's worth.
	n := (pmemkv.SegmentSize / 4096) + 100
	for i := 0; i < n; i++ {
		if err := db.Put(ctx, uint64(i), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if segs, err := fs.ReadDir(ctx, "/pmemkv"); err != nil || len(segs) < 2 {
		t.Fatalf("pool did not grow: %d segment files (%v)", len(segs), err)
	}
	buf := make([]byte, 4096)
	if got, err := db.Get(ctx, uint64(n-1), buf); err != nil || got != 4096 {
		t.Fatalf("get: %d %v", got, err)
	}
}

func TestRocksDBFlushCompactLookup(t *testing.T) {
	fs, ctx := wineFS(t, 1<<30)
	db, err := rocksdb.Open(ctx, fs, rocksdb.Options{MemtableBytes: 256 << 10, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		for j := range val {
			val[j] = byte(i % 251)
		}
		if err := db.Put(ctx, i, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if files, err := fs.ReadDir(ctx, "/rocksdb"); err != nil || len(files) > 5 {
		t.Fatalf("compaction not bounding tables: %d files beside the WAL (%v)", len(files)-1, err)
	}
	buf := make([]byte, 512)
	for _, k := range []uint64{0, 17, n / 3, n - 1} {
		got, err := db.Get(ctx, k, buf)
		if err != nil || got != 512 {
			t.Fatalf("get %d: %d %v", k, got, err)
		}
		if buf[0] != byte(k%251) {
			t.Fatalf("get %d: content %d", k, buf[0])
		}
	}
	// Overwrites: newest value wins across tables. The keys after it fill
	// the memtable past its threshold, so the overwrite is flushed too.
	if err := db.Put(ctx, 17, bytes.Repeat([]byte{0xEE}, 512)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(n); i < n+600; i++ {
		if err := db.Put(ctx, i, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	db.Get(ctx, 17, buf)
	if buf[0] != 0xEE {
		t.Fatal("overwrite lost")
	}
}

func TestPARTInsertLookup(t *testing.T) {
	fs, ctx := wineFS(t, 1<<30)
	tree, err := part.New(ctx, fs, "/pool", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(3)
	keys := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64()
		keys[k] = k * 3
		if err := tree.Insert(ctx, k, k*3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for k, want := range keys {
		v, ok, err := tree.Lookup(ctx, k)
		if err != nil || !ok || v != want {
			t.Fatalf("lookup %x: %x %v %v", k, v, ok, err)
		}
	}
	if _, ok, _ := tree.Lookup(ctx, 0xdeadbeefdeadbeef); ok && keys[0xdeadbeefdeadbeef] == 0 {
		t.Fatal("phantom key")
	}
}

func TestPARTDenseKeysGrowNodes(t *testing.T) {
	// Sequential keys share prefixes: forces N4→N16→N48→N256 growth.
	fs, ctx := wineFS(t, 512<<20)
	tree, _ := part.New(ctx, fs, "/pool", 32<<20)
	for i := uint64(0); i < 5000; i++ {
		if err := tree.Insert(ctx, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5000; i += 37 {
		v, ok, err := tree.Lookup(ctx, i)
		if err != nil || !ok || v != i+1 {
			t.Fatalf("lookup %d: %d %v %v", i, v, ok, err)
		}
	}
	// Replacement.
	tree.Insert(ctx, 42, 999)
	if v, ok, _ := tree.Lookup(ctx, 42); !ok || v != 999 {
		t.Fatalf("replace: %d %v", v, ok)
	}
}

func TestPARTPrefaultedNoFaultsOnLookup(t *testing.T) {
	fs, ctx := wineFS(t, 512<<20)
	tree, _ := part.New(ctx, fs, "/pool", 32<<20)
	for i := uint64(0); i < 10000; i++ {
		tree.Insert(ctx, i*2654435761, i)
	}
	ctx.Reset()
	for i := uint64(0); i < 1000; i++ {
		tree.Lookup(ctx, i*2654435761)
	}
	if ctx.Counters.TotalFaults() != 0 {
		t.Fatalf("lookups took %d faults on a pre-faulted pool", ctx.Counters.TotalFaults())
	}
}

// TestAppsAcrossFileSystems smoke-tests each app on a second FS to catch
// interface assumptions (ext4-DAX has the most different fault behaviour).
func TestAppsAcrossFileSystems(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(1 << 30)
	fs := ext4dax.New(dev)

	db, err := lmdb.Open(ctx, fs, lmdb.Options{MapSize: 32 << 20, Path: "/l.mdb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}

	kv, err := pmemkv.OpenSized(ctx, fs, "/kv", pmemkv.SegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, 1, []byte("y")); err != nil {
		t.Fatal(err)
	}

	rdb, err := rocksdb.Open(ctx, fs, rocksdb.Options{Dir: "/rdb"})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := rdb.Put(ctx, i, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}

	tr, err := part.New(ctx, fs, "/pool", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := tr.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
}
