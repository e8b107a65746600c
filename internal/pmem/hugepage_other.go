//go:build !linux

package pmem

// adviseHuge does nothing off Linux: there is no transparent-hugepage
// advice to give.
func adviseHuge(*chunkBuf) {}
