package geriatrix

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/ext4dax"
	"repro/internal/nova"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

func TestAgrawalProfileShape(t *testing.T) {
	p := Agrawal()
	r := sim.NewRand(1)
	var totalBytes, largeBytes int64
	var largeCount, n int64
	for i := 0; i < 200000; i++ {
		s := p.Sample(r)
		if s <= 0 {
			t.Fatalf("non-positive size %d", s)
		}
		totalBytes += s
		if s >= 2<<20 {
			largeBytes += s
			largeCount++
		}
		n++
	}
	largeFrac := float64(largeBytes) / float64(totalBytes)
	// §5.1: "56% of the total capacity is occupied by large files".
	if largeFrac < 0.45 || largeFrac > 0.67 {
		t.Fatalf("large-file byte share = %.2f, want ≈0.56", largeFrac)
	}
	if float64(largeCount)/float64(n) > 0.10 {
		t.Fatalf("too many large files: %.3f", float64(largeCount)/float64(n))
	}
}

func TestWangHPCProfileHeavierTail(t *testing.T) {
	r := sim.NewRand(2)
	hpc, agr := WangHPC(), Agrawal()
	var hpcBytes, agrBytes int64
	for i := 0; i < 50000; i++ {
		hpcBytes += hpc.Sample(r)
		agrBytes += agr.Sample(r)
	}
	if hpcBytes <= agrBytes {
		t.Fatalf("HPC profile should average larger files: hpc=%d agrawal=%d", hpcBytes, agrBytes)
	}
}

func TestAgingReachesTarget(t *testing.T) {
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(512 << 20)
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ager := New(fs, Config{TargetUtil: 0.6, ChurnFactor: 0.5, Seed: 3})
	st, err := ager.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalUtil < 0.55 || st.FinalUtil > 0.70 {
		t.Fatalf("final util = %.2f, want ≈0.6", st.FinalUtil)
	}
	if st.Deleted == 0 {
		t.Fatal("churn phase deleted nothing")
	}
	if st.BytesWritten < int64(0.5*float64(512<<20)) {
		t.Fatalf("churn volume too small: %d", st.BytesWritten)
	}
	dirs, err := fs.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	onDisk := 0
	for _, d := range dirs {
		files, err := fs.ReadDir(ctx, "/"+d.Name)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += len(files)
	}
	if st.LiveFiles == 0 || onDisk != st.LiveFiles || st.Created-st.Deleted != int64(st.LiveFiles) {
		t.Fatalf("live-file bookkeeping inconsistent: %d live, %d created - %d deleted, %d on the file system",
			st.LiveFiles, st.Created, st.Deleted, onDisk)
	}
}

// TestAgingFragmentsBaselinesMoreThanWineFS is the repository's core
// qualitative claim (Figure 3): after identical aging, WineFS retains far
// more aligned free 2MiB regions than NOVA and ext4-DAX.
func TestAgingFragmentsBaselinesMoreThanWineFS(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	frac := map[string]float64{}
	for _, name := range []string{"WineFS", "ext4-DAX", "NOVA"} {
		ctx := sim.NewCtx(1, 0)
		dev := pmem.New(1 << 30)
		var fs vfs.FS
		var err error
		switch name {
		case "WineFS":
			fs, err = winefs.Mkfs(ctx, dev, winefs.Options{CPUs: 4})
		case "ext4-DAX":
			fs = ext4dax.New(dev)
		case "NOVA":
			fs = nova.New(dev, nova.Options{CPUs: 4})
		}
		if err != nil {
			t.Fatal(err)
		}
		ager := New(fs, Config{TargetUtil: 0.7, ChurnFactor: 2, Seed: 11})
		if _, err := ager.Run(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frac[name] = alloc.AlignedFreeFraction(fs.FreeExtents())
		t.Logf("%s: aligned free fraction at 70%% util = %.3f", name, frac[name])
	}
	if frac["WineFS"] <= frac["NOVA"] || frac["WineFS"] <= frac["ext4-DAX"] {
		t.Fatalf("WineFS should retain the most aligned free space: %v", frac)
	}
	// §2.3: "at about 70% utilization, NOVA had close to zero 2MB extents".
	if frac["NOVA"] > 0.5 {
		t.Fatalf("NOVA insufficiently fragmented: %.3f", frac["NOVA"])
	}
	if frac["WineFS"] < 0.6 {
		t.Fatalf("WineFS lost too many aligned regions: %.3f", frac["WineFS"])
	}
}
