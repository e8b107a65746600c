package pmem

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Media faults. Real Optane DIMMs report uncorrectable media errors as
// poisoned cache lines: a load from a poisoned line raises a machine check
// (surfaced to the kernel as -EIO through the pmem driver's badblocks
// machinery), while a full-line store clears the poison and re-arms the
// line. The simulated device models exactly that:
//
//   - lines can be poisoned explicitly (Poison) or by scripted read rules
//     (SetReadFaults) that trip on the Nth access to a byte range;
//   - the checked read paths (ReadAtChecked / ReadChecked) return a typed
//     *MediaError when any covered line is poisoned — they never return
//     corrupt bytes silently;
//   - WriteAt / ZeroRange clear poison on every line they fully overwrite
//     (partial-line writes leave the line poisoned, as on hardware).
//
// Every store persists whole on the live device. What a power cut leaves
// of in-flight stores — none, a subset, or an epoch torn at cache-line
// granularity — is decided only offline, by a Recording (recording.go).
//
// All decisions are deterministic, so fault campaigns are reproducible
// run-to-run.

// MediaError is an uncorrectable media error: a load touched at least one
// poisoned cache line. Off/Len describe the attempted access, Line the
// first poisoned line (byte address of its start).
type MediaError struct {
	Off  int64
	Len  int64
	Line int64
}

func (e *MediaError) Error() string {
	return fmt.Sprintf("pmem: media error reading [%d,%d): poisoned line at %d", e.Off, e.Off+e.Len, e.Line)
}

// RangeError reports an access outside the device, as an error instead of
// the panic used for direct programmer error.
type RangeError struct {
	Off, Len, Size int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("pmem: access [%d,%d) outside device of size %d", e.Off, e.Off+e.Len, e.Size)
}

// ReadRule scripts a media error: the Nth checked read that intersects
// [Start, End) fails. End == 0 means the device end.
type ReadRule struct {
	Start, End int64
	// Nth fails only the Nth matching read (1-based). 0 fails every
	// matching read.
	Nth int
	// Transient errors do not leave the line poisoned (a retry succeeds);
	// persistent ones (the default) poison every line the read touched.
	Transient bool

	hits int
}

// faultState is the per-device fault bookkeeping, lazily allocated.
type faultState struct {
	mu     sync.Mutex
	poison map[int64]struct{} // poisoned lines, keyed by line start address
	reads  []ReadRule         // scripted read failures, checked in order

	poisonedReads int64 // checked reads that returned a MediaError
}

func (d *Device) faults() *faultState {
	d.faultOnce.Do(func() { d.fault = &faultState{poison: make(map[int64]struct{})} })
	return d.fault
}

// SetReadFaults installs scripted read failures, replacing any installed
// before; nil removes them (existing poison persists until overwritten).
// The rules are copied, so their hit counts belong to the device.
func (d *Device) SetReadFaults(rules []ReadRule) {
	f := d.faults()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads = append([]ReadRule(nil), rules...)
}

// Poison marks every cache line intersecting [off, off+n) as an
// uncorrectable media error. Checked reads of those lines fail until a
// full-line write clears them.
func (d *Device) Poison(off, n int64) {
	d.checkRange(off, n)
	f := d.faults()
	f.mu.Lock()
	defer f.mu.Unlock()
	for line := off / CacheLine * CacheLine; line < off+n; line += CacheLine {
		f.poison[line] = struct{}{}
	}
}

// ClearPoison removes poison from every line intersecting [off, off+n)
// without changing contents (fsck repair uses it after rewriting metadata).
func (d *Device) ClearPoison(off, n int64) {
	if d.fault == nil {
		return
	}
	f := d.fault
	f.mu.Lock()
	defer f.mu.Unlock()
	for line := off / CacheLine * CacheLine; line < off+n; line += CacheLine {
		delete(f.poison, line)
	}
}

// PoisonedLines returns the start addresses of poisoned lines intersecting
// [off, off+n), in ascending order. It walks the poison map, so a
// whole-device query costs the number of poisoned lines, not the number
// of lines in the range.
func (d *Device) PoisonedLines(off, n int64) []int64 {
	if d.fault == nil {
		return nil
	}
	f := d.fault
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int64
	first := off / CacheLine * CacheLine
	for line := range f.poison {
		if line >= first && line < off+n {
			out = append(out, line)
		}
	}
	slices.Sort(out)
	return out
}

// PoisonedReads reports how many checked reads failed since the device
// was created.
func (d *Device) PoisonedReads() int64 {
	if d.fault == nil {
		return 0
	}
	f := d.fault
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.poisonedReads
}

// CheckRange reports whether [off, off+n) lies inside the device, as an
// error. File systems use it to validate untrusted on-PM pointers (extent
// records, indirect chains) so corruption surfaces as EIO instead of a
// crash; the panicking checkRange remains for trusted internal accesses.
func (d *Device) CheckRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > d.size {
		return &RangeError{Off: off, Len: n, Size: d.size}
	}
	return nil
}

// checkFaults is the read-side fault gate: it applies scripted read rules,
// then fails if any covered line is poisoned.
func (d *Device) checkFaults(off, n int64) error {
	if d.fault == nil {
		return nil
	}
	f := d.fault
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.reads {
		r := &f.reads[i]
		end := r.End
		if end == 0 {
			end = d.size
		}
		if off >= end || off+n <= r.Start {
			continue
		}
		r.hits++
		if r.Nth != 0 && r.hits != r.Nth {
			continue
		}
		if !r.Transient {
			for line := off / CacheLine * CacheLine; line < off+n; line += CacheLine {
				f.poison[line] = struct{}{}
			}
		}
		f.poisonedReads++
		return &MediaError{Off: off, Len: n, Line: off / CacheLine * CacheLine}
	}
	if len(f.poison) > 0 {
		for line := off / CacheLine * CacheLine; line < off+n; line += CacheLine {
			if _, ok := f.poison[line]; ok {
				f.poisonedReads++
				return &MediaError{Off: off, Len: n, Line: line}
			}
		}
	}
	return nil
}

// ReadAtChecked is ReadAt with the media-fault gate: it fills buf only
// when every covered line is healthy, and returns a *MediaError (or
// *RangeError) otherwise. buf contents are unspecified on error.
func (d *Device) ReadAtChecked(buf []byte, off int64) error {
	if err := d.CheckRange(off, int64(len(buf))); err != nil {
		return err
	}
	if err := d.checkFaults(off, int64(len(buf))); err != nil {
		return err
	}
	d.ReadAt(buf, off)
	return nil
}

// ReadChecked is Read with the media-fault gate. Virtual time is charged
// even on failure: the load was issued and machine-checked.
func (d *Device) ReadChecked(ctx *sim.Ctx, buf []byte, off int64) error {
	if err := d.CheckRange(off, int64(len(buf))); err != nil {
		return err
	}
	err := d.checkFaults(off, int64(len(buf)))
	d.chargeRead(ctx, off, int64(len(buf)))
	if err != nil {
		return err
	}
	d.ReadAt(buf, off)
	return nil
}

// clearPoisonCovered removes poison from lines fully inside [off, off+n):
// a full-line store rewrites the line and re-arms it, while a partial
// write leaves the rest of the line as garbage, so the poison stays.
func (d *Device) clearPoisonCovered(off, n int64) {
	if d.fault == nil {
		return
	}
	f := d.fault
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.poison) == 0 {
		return
	}
	first := (off + CacheLine - 1) / CacheLine * CacheLine
	last := (off + n) / CacheLine * CacheLine
	for line := first; line < last; line += CacheLine {
		delete(f.poison, line)
	}
}
