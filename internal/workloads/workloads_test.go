package workloads_test

import (
	"testing"

	"repro/internal/apps/pmemkv"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
	"repro/internal/workloads"
)

func newFS(t *testing.T, size int64) (vfs.FS, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(size)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	return fs, ctx
}

func TestYCSBAllWorkloads(t *testing.T) {
	fs, ctx := newFS(t, 1<<30)
	kv, err := pmemkv.OpenSized(ctx, fs, "/kv", pmemkv.SegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.YCSBConfig{Records: 2000, Operations: 2000, ValueSize: 256}
	if err := workloads.YCSBLoadPhase(ctx, kv, cfg); err != nil {
		t.Fatal(err)
	}
	for _, kind := range workloads.AllYCSB()[1:] {
		r, err := workloads.YCSBRun(ctx, kv, kind, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Throughput() <= 0 {
			t.Fatalf("%s: zero throughput", kind)
		}
	}
}

func TestDBBenchKinds(t *testing.T) {
	fs, ctx := newFS(t, 1<<30)
	kv, _ := pmemkv.OpenSized(ctx, fs, "/kv", pmemkv.SegmentSize)
	cfg := workloads.DBBenchConfig{Records: 2000, ValueSize: 512}
	for _, kind := range []workloads.DBBenchKind{
		workloads.FillSeq, workloads.FillSeqBatch, workloads.FillRandom, workloads.ReadRandom,
	} {
		ops, ns, err := workloads.DBBench(ctx, kv, kind, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ops != 2000 || ns <= 0 {
			t.Fatalf("%s: ops=%d ns=%d", kind, ops, ns)
		}
	}
}

func TestFilebenchPersonalities(t *testing.T) {
	for _, p := range workloads.AllPersonalities() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fs, _ := newFS(t, 1<<30)
			r, err := workloads.Filebench(fs, p, workloads.FilebenchConfig{
				Threads: 4, Files: 200, OpsPerThread: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Throughput() <= 0 {
				t.Fatal("zero throughput")
			}
		})
	}
}

func TestPgbench(t *testing.T) {
	fs, _ := newFS(t, 1<<30)
	r, err := workloads.Pgbench(fs, workloads.PgbenchConfig{
		Threads: 4, DatabaseBytes: 64 << 20, TxPerThread: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TPS() <= 0 || r.Tx != 200 {
		t.Fatalf("tps=%f tx=%d", r.TPS(), r.Tx)
	}
}

func TestWiredTiger(t *testing.T) {
	fs, ctx := newFS(t, 1<<30)
	ops, ns, offsets, err := workloads.WiredTigerFill(ctx, fs, workloads.WiredTigerConfig{Records: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 2000 || ns <= 0 || len(offsets) != 2000 {
		t.Fatalf("fill: ops=%d ns=%d offs=%d", ops, ns, len(offsets))
	}
	rops, rns, err := workloads.WiredTigerRead(ctx, fs, workloads.WiredTigerConfig{Records: 2000}, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if rops != 2000 || rns <= 0 {
		t.Fatalf("read: ops=%d ns=%d", rops, rns)
	}
}

func TestScalabilityImproves(t *testing.T) {
	// More threads must yield more throughput on a per-CPU-journal FS.
	tput := map[int]float64{}
	for _, threads := range []int{1, 8} {
		fs, _ := newFS(t, 1<<30)
		v, err := workloads.Scalability(fs, workloads.ScalabilityConfig{
			Threads: threads, OpsPerThread: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		tput[threads] = v
	}
	if tput[8] < tput[1]*3 {
		t.Fatalf("WineFS scalability poor: 1thr=%.0f 8thr=%.0f", tput[1], tput[8])
	}
}
