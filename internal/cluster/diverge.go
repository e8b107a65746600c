package cluster

import (
	"fmt"

	"repro/internal/pmem"
)

// The divergence checker decides whether a replica's image really is the
// primary's, byte for byte: the replication stream promises a physical
// mirror.

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
