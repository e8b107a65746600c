// Package crashmonkey reimplements the crash-consistency methodology the
// paper uses to validate WineFS (§5.2): an Automatic-Crash-Explorer-style
// workload generator produces small sequences of metadata-mutating system
// calls; for each workload the device records every store between fences;
// crash states are constructed from all permitted persistence outcomes of
// the in-flight stores; each crash state is recovered by a real mount and
// then checked two ways — structural invariants via the offline fsck, and
// semantic atomicity against an oracle: because WineFS operations are
// synchronous, the recovered state — vfs.State: names, sizes, link counts
// and what the files hold — must equal the state exactly before or exactly
// after the in-flight operation, and once the operation has returned, the
// state after it. Crash images come from pmem.Recording.
package crashmonkey

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/fstest"
	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// DataByte is what the workloads' Write and MapStore store. Everything else
// writes zeros, so a page of it that a recovery loses reads back as the hole
// it was — a different checksum — and any byte that is neither is
// corruption.
const DataByte = 0xA5

// filled is n bytes of DataByte.
func filled(n int) []byte { return bytes.Repeat([]byte{DataByte}, n) }

// Workload is a crash-test case: Setup runs before recording; every op in
// Ops is crash-explored, on a mount of the given consistency mode.
type Workload struct {
	Name  string
	Mode  vfs.ConsistencyMode
	Setup []fstest.Op
	Ops   []fstest.Op
}

// eio is what vfs.State prints for the checksum of a file whose bytes the
// media would not return.
const eio = " sha256=EIO"

// sansContent is state s without the checksum of path's bytes: what is left
// to compare of a file whose data a crash may tear or a fault has taken.
func sansContent(s, path string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, path+" file ") {
			lines[i], _, _ = strings.Cut(l, " sha256=")
		}
	}
	return strings.Join(lines, "\n")
}

// crashAtomic reports whether got is a state a crash in the middle of o may
// leave: the one before it or the one after, each a vfs.State. Relaxed mode
// promises that of a write's metadata only — its data "may be partially
// complete after a crash" (vfs.Relaxed) — so there the written file's bytes
// are not compared; nor are those of a file got could not read for poison.
func crashAtomic(got, before, after string, o fstest.Op, mode vfs.ConsistencyMode) bool {
	var skip []string
	if o.Kind == fstest.Write && mode == vfs.Relaxed {
		skip = append(skip, o.A)
	}
	for _, l := range strings.Split(got, "\n") {
		if path, _, ok := strings.Cut(l, " file "); ok && strings.HasSuffix(l, eio) {
			skip = append(skip, path)
		}
	}
	for _, path := range skip {
		got, before, after = sansContent(got, path), sansContent(before, path), sansContent(after, path)
	}
	return got == before || got == after
}

// Result summarises one workload's exploration.
type Result struct {
	Workload    string
	Ops         int
	CrashStates int
	Failures    []string
}

// Every crash test formats a 64 MiB device with two CPUs' journals, which
// exercises the multi-journal recovery path.
const (
	deviceSize = 64 << 20
	cpus       = 2
)

// Config tunes the explorer.
type Config struct {
	// MaxSubsets bounds the in-flight-store subsets explored per epoch
	// (default 256; see pmem.Recording.Crashes).
	MaxSubsets int
	Seed       uint64
}

func (c *Config) defaults() {
	if c.MaxSubsets == 0 {
		c.MaxSubsets = 256
	}
}

// Run crash-explores one workload against WineFS.
func Run(w Workload, cfg Config) Result {
	cfg.defaults()
	res := Result{Workload: w.Name, Ops: len(w.Ops)}
	ctx := sim.NewCtx(1, 0)
	dev := pmem.New(deviceSize)
	defer dev.Release()
	fs, err := winefs.Mkfs(ctx, dev, winefs.Options{CPUs: cpus, InodesPerCPU: 512, Mode: w.Mode})
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("mkfs: %v", err))
		return res
	}
	for _, o := range w.Setup {
		if err := fstest.Apply(ctx, fs, o); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("setup %s: %v", o, err))
			return res
		}
	}
	rng := sim.NewRand(cfg.Seed + 77)

	for k, o := range w.Ops {
		before := vfs.State(ctx, fs)
		rec, opErr := dev.Record(func() error { return fstest.Apply(ctx, fs, o) })
		after := vfs.State(ctx, fs)
		if opErr != nil {
			// The op legitimately failed (e.g. unlink of missing file):
			// nothing in flight to explore.
			rec.Base.Release()
			continue
		}
		rec.Crashes(cfg.MaxSubsets, rng, func(crash *pmem.Device, e int, mask uint64) bool {
			res.CrashStates++
			pre, inflight, returned := before, o, ""
			if e > rec.Last() {
				// The operation is synchronous: with every store of it
				// durable, the state is the one after it, and no other — an
				// acknowledged write that a mount reads back as the hole it
				// filled is "before".
				pre, inflight, returned = after, fstest.Op{}, ", returned"
			}
			if msg := checkCrashState(crash, w.Mode, pre, after, inflight, e, mask); msg != "" {
				res.Failures = append(res.Failures, fmt.Sprintf("op %d (%s)%s: %s", k, o, returned, msg))
			}
			return len(res.Failures) <= 20
		})
		rec.Base.Release()
		if len(res.Failures) > 20 {
			return res
		}
	}
	return res
}

// checkCrashState mounts one crash state, validates the recovery and
// releases the device.
func checkCrashState(crash *pmem.Device, mode vfs.ConsistencyMode, before, after string, o fstest.Op, epoch int, mask uint64) string {
	defer crash.Release()
	rctx := sim.NewCtx(2, 0)
	rfs, err := winefs.Mount(rctx, crash, winefs.Options{Mode: mode})
	if err != nil {
		return fmt.Sprintf("epoch %d mask %x: mount failed: %v", epoch, mask, err)
	}
	if rep := winefs.Check(crash); !rep.OK() {
		return fmt.Sprintf("epoch %d mask %x: fsck: %s", epoch, mask, rep.Errors[0])
	}
	got := vfs.State(rctx, rfs)
	if !crashAtomic(got, before, after, o, mode) {
		return fmt.Sprintf("epoch %d mask %x: atomicity violated:\n got: %q\n pre: %q\npost: %q",
			epoch, mask, got, before, after)
	}
	return ""
}

// GenerateSeq1 produces ACE's one-op workloads over a small file universe.
func GenerateSeq1() []Workload {
	setup := []fstest.Op{
		{Kind: fstest.Mkdir, A: "/A"},
		{Kind: fstest.Mkdir, A: "/B"},
		{Kind: fstest.Create, A: "/A/foo"},
		{Kind: fstest.Append, A: "/A/foo", Data: make([]byte, 5000)},
		{Kind: fstest.Create, A: "/bar"},
		// /sp: ten blocks, sparse but for the third.
		{Kind: fstest.Create, A: "/sp"},
		{Kind: fstest.Truncate, A: "/sp", Size: 40960},
		{Kind: fstest.Write, A: "/sp", Off: 8192, Data: filled(4096)},
	}
	ops := []fstest.Op{
		{Kind: fstest.Create, A: "/A/new"},
		{Kind: fstest.Create, A: "/new"},
		{Kind: fstest.Mkdir, A: "/A/sub"},
		{Kind: fstest.Unlink, A: "/A/foo"},
		{Kind: fstest.Unlink, A: "/bar"},
		{Kind: fstest.Rmdir, A: "/B"},
		{Kind: fstest.Rename, A: "/A/foo", B: "/A/foo2"},
		{Kind: fstest.Rename, A: "/A/foo", B: "/B/foo"},
		{Kind: fstest.Rename, A: "/A/foo", B: "/bar"}, // replaces target
		{Kind: fstest.Append, A: "/A/foo", Data: make([]byte, 3000)},
		{Kind: fstest.Truncate, A: "/A/foo", Size: 1000},
		{Kind: fstest.Truncate, A: "/A/foo", Size: 100000},
		{Kind: fstest.Falloc, A: "/bar", Size: 1 << 20},
		{Kind: fstest.Fsync, A: "/A/foo"},
		{Kind: fstest.Write, A: "/sp", Off: 20480, Data: filled(4096)},              // into a hole
		{Kind: fstest.Write, A: "/sp", Off: 6000, Data: filled(5000)},               // a hole and the written block
		{Kind: fstest.Write, A: "/sp", Off: 40000, Data: filled(3000)},              // a hole and across EOF
		{Kind: fstest.Write, A: "/A/foo", Off: 1000, Data: filled(2000)},            // over existing bytes
		{Kind: fstest.Write, A: "/A/foo", Off: 4000, Data: filled(2000)},            // over existing bytes and across EOF
		{Kind: fstest.MapStore, A: "/sp", Off: 28672, Data: filled(pmem.CacheLine)}, // demand-faults a hole's page
		{Kind: fstest.Punch, A: "/sp", Off: 8192, Size: 4096},
	}
	var out []Workload
	for i, o := range ops {
		out = append(out, Workload{
			Name:  fmt.Sprintf("seq1-%02d-%s", i, o),
			Setup: setup,
			Ops:   []fstest.Op{o},
		})
	}
	// A write over a fragmented file: /frag is thirteen one-block extents, a
	// spacer's blocks between them, so on a strict mount the write is one
	// copy-on-write whose transaction logs more than a dozen entries.
	frag := []fstest.Op{{Kind: fstest.Create, A: "/frag"}, {Kind: fstest.Create, A: "/spacer"}}
	for i := 0; i < 13; i++ {
		frag = append(frag, fstest.Op{Kind: fstest.Append, A: "/frag", Data: make([]byte, 4096)},
			fstest.Op{Kind: fstest.Append, A: "/spacer", Data: make([]byte, 4096)})
	}
	o := fstest.Op{Kind: fstest.Write, A: "/frag", Off: 0, Data: filled(13 * 4096)}
	return append(out, Workload{Name: fmt.Sprintf("seq1-%02d-%s", len(ops), o), Setup: frag, Ops: []fstest.Op{o}})
}

// GenerateSeq2 produces ACE's seq-2 workloads — dependent pairs that
// historically expose reordering bugs — and the sparse-file sequences.
func GenerateSeq2() []Workload {
	setup := []fstest.Op{
		{Kind: fstest.Mkdir, A: "/A"},
		{Kind: fstest.Create, A: "/A/foo"},
		{Kind: fstest.Append, A: "/A/foo", Data: make([]byte, 4096)},
	}
	seqs := [][]fstest.Op{
		{{Kind: fstest.Create, A: "/A/x"}, {Kind: fstest.Rename, A: "/A/x", B: "/A/y"}},
		{{Kind: fstest.Create, A: "/A/x"}, {Kind: fstest.Unlink, A: "/A/x"}},
		{{Kind: fstest.Mkdir, A: "/D"}, {Kind: fstest.Create, A: "/D/f"}},
		{{Kind: fstest.Mkdir, A: "/D"}, {Kind: fstest.Rmdir, A: "/D"}},
		{{Kind: fstest.Unlink, A: "/A/foo"}, {Kind: fstest.Create, A: "/A/foo"}},
		{{Kind: fstest.Rename, A: "/A/foo", B: "/A/bar"}, {Kind: fstest.Create, A: "/A/foo"}},
		{{Kind: fstest.Append, A: "/A/foo", Data: make([]byte, 8192)}, {Kind: fstest.Truncate, A: "/A/foo", Size: 0}},
		{{Kind: fstest.Truncate, A: "/A/foo", Size: 0}, {Kind: fstest.Append, A: "/A/foo", Data: make([]byte, 4096)}},
		{{Kind: fstest.Create, A: "/A/x"}, {Kind: fstest.Mkdir, A: "/A/d"}},
		{{Kind: fstest.Rename, A: "/A/foo", B: "/g"}, {Kind: fstest.Rename, A: "/g", B: "/A/foo"}},
		// The life of a sparse file, in two workloads: grown by truncate and
		// written into; and all of it — every step leaves extent records
		// whose count only the header write at commit tells the next mount.
		{{Kind: fstest.Truncate, A: "/A/foo", Size: 65536}, {Kind: fstest.Write, A: "/A/foo", Off: 32768, Data: filled(4096)}},
		{
			{Kind: fstest.Truncate, A: "/A/foo", Size: 65536},
			{Kind: fstest.Write, A: "/A/foo", Off: 32768, Data: filled(6000)},
			{Kind: fstest.MapStore, A: "/A/foo", Off: 49152, Data: filled(pmem.CacheLine)},
			{Kind: fstest.Punch, A: "/A/foo", Off: 32768, Size: 4096},
		},
	}
	var out []Workload
	for i, ops := range seqs {
		names := make([]string, len(ops))
		for k, o := range ops {
			names[k] = o.String()
		}
		out = append(out, Workload{
			Name:  fmt.Sprintf("seq2-%02d-%s", i, strings.Join(names, "+")),
			Setup: setup,
			Ops:   ops,
		})
	}
	return out
}
