package cluster

import (
	"fmt"
	"strings"

	"repro/internal/pmem"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/winefs"
)

// The divergence checker is the cluster's truth oracle: it decides whether
// a replica's image really is the primary's, first byte-for-byte (the
// replication stream promises a physical mirror), then — for images that
// differ physically, e.g. after independent recovery — logically, by
// mounting clones of both and comparing what each shows (vfs.State),
// cross-checked by winefs.Audit on each side.

// Diff is one diverging byte range.
type Diff struct {
	Off int64
	Len int64
}

// maxDiffs caps reported ranges; divergence is a yes/no with examples, not
// an exhaustive delta.
const maxDiffs = 16

// CompareDevices byte-compares two devices of one size in place, chunk by
// chunk, each frozen under its snapshot gate (unbacked chunks read as zero
// on both sides). It returns the first maxDiffs diverging ranges; empty
// means the images are identical.
func CompareDevices(a, b *pmem.Device) []Diff {
	var diffs []Diff
	a.Diffs(b, func(off, n int64) bool {
		diffs = append(diffs, Diff{Off: off, Len: n})
		return len(diffs) < maxDiffs
	})
	return diffs
}

// SilentDivergence is AwaitConverged's verdict on a replica that acked
// every sequence the primary logged and still differs from it: a byte the
// stream never carried.
type SilentDivergence struct {
	Replica string
	Seq     uint64
	Diffs   []Diff
}

func (e *SilentDivergence) Error() string {
	return fmt.Sprintf("cluster: silent divergence: %s acked seq %d yet differs from the primary in %d ranges, first at %d (+%d)",
		e.Replica, e.Seq, len(e.Diffs), e.Diffs[0].Off, e.Diffs[0].Len)
}

// LogicalReport is the outcome of a logical comparison.
type LogicalReport struct {
	// Equal: both clones mounted, audited clean, and hold identical trees.
	Equal bool
	// Diffs lists human-readable mismatches (capped).
	Diffs []string
	// AuditErrs holds Audit failures per side ("a: ...", "b: ...").
	AuditErrs []string
}

func (lr *LogicalReport) diff(format string, args ...any) {
	if len(lr.Diffs) < maxDiffs {
		lr.Diffs = append(lr.Diffs, fmt.Sprintf(format, args...))
	}
	lr.Equal = false
}

// CompareLogical clones both devices (the originals are untouched), mounts
// each clone through the recovery path, runs winefs.Audit on both, and
// reports every line where the two mounts' vfs.State differ: names, kinds,
// sizes, link counts and file contents.
func CompareLogical(ctx *sim.Ctx, a, b *pmem.Device, opts winefs.Options) *LogicalReport {
	rep := &LogicalReport{Equal: true}
	fa, ca, err := mountClone(ctx, a, opts)
	defer ca.Release()
	if err != nil {
		rep.diff("a: mount failed: %v", err)
		return rep
	}
	defer fa.Unmount(ctx)
	fb, cb, err := mountClone(ctx, b, opts)
	defer cb.Release()
	if err != nil {
		rep.diff("b: mount failed: %v", err)
		return rep
	}
	defer fb.Unmount(ctx)
	if err := fa.Audit(ctx); err != nil {
		rep.AuditErrs = append(rep.AuditErrs, fmt.Sprintf("a: %v", err))
		rep.Equal = false
	}
	if err := fb.Audit(ctx); err != nil {
		rep.AuditErrs = append(rep.AuditErrs, fmt.Sprintf("b: %v", err))
		rep.Equal = false
	}
	la := strings.Split(vfs.State(ctx, fa), "\n")
	lb := strings.Split(vfs.State(ctx, fb), "\n")
	for _, l := range missing(la, lb) {
		rep.diff("only a: %s", l)
	}
	for _, l := range missing(lb, la) {
		rep.diff("only b: %s", l)
	}
	return rep
}

// missing returns the lines of a that b lacks.
func missing(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}

// mountClone mounts a snapshot of dev so recovery cannot disturb the
// original image. The caller releases the snapshot, mounted or not.
func mountClone(ctx *sim.Ctx, dev *pmem.Device, opts winefs.Options) (*winefs.FS, *pmem.Device, error) {
	clone := dev.Snapshot()
	fs, err := winefs.Mount(ctx, clone, opts)
	return fs, clone, err
}

// ConvergeOutcome names the repair-ladder rung that produced convergence.
type ConvergeOutcome string

const (
	// ConvergedClean: the images were already byte-identical.
	ConvergedClean ConvergeOutcome = "clean"
	// ConvergedLogical: bytes differed (divergence detected) but the
	// mounted trees matched — benign physical skew, e.g. independent
	// journal replay.
	ConvergedLogical ConvergeOutcome = "logical"
	// ConvergedResync: only restoring the primary's snapshot converged
	// the replica (real divergence, repaired by resync).
	ConvergedResync ConvergeOutcome = "resync"
)

// ConvergeReport describes how a replica reached the primary's image.
type ConvergeReport struct {
	Outcome ConvergeOutcome
	// Detected is true when any rung below "clean" ran — the divergence
	// was seen, not silently absorbed.
	Detected  bool
	ByteDiffs int
	Log       []string
}

// Converge runs the campaign's repair ladder against a replica device:
// byte-compare → logical compare → resync from the primary image. It
// always converges (the last rung is a copy), and the report says how
// loudly the road there was.
func Converge(ctx *sim.Ctx, primary, replica *pmem.Device, opts winefs.Options) *ConvergeReport {
	rep := &ConvergeReport{}
	diffs := CompareDevices(primary, replica)
	rep.ByteDiffs = len(diffs)
	if len(diffs) == 0 {
		rep.Outcome = ConvergedClean
		return rep
	}
	rep.Detected = true
	rep.Log = append(rep.Log, fmt.Sprintf("byte divergence: %d ranges, first at %d (+%d)", len(diffs), diffs[0].Off, diffs[0].Len))

	if lr := CompareLogical(ctx, primary, replica, opts); lr.Equal {
		rep.Outcome = ConvergedLogical
		return rep
	}

	// Restore locks replica before primary, the reverse of the
	// CompareDevices above. That is safe because the replica is a dead
	// node that has left the cluster: no other goroutine compares it.
	replica.Restore(primary)
	rep.Outcome = ConvergedResync
	rep.Log = append(rep.Log, "resynced replica from primary image")
	return rep
}
