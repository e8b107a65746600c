package pmem

import (
	"syscall"
	"unsafe"
)

// adviseHuge asks the kernel to back chunk c with transparent hugepages.
// The Go heap places a 2MiB object on an 8KiB boundary, so the advice
// covers the 2MiB-aligned host range around c, which reaches into
// neighbouring heap memory. That is why the range exists only as
// integers: a Go pointer or slice over it would point outside any object
// and abort the garbage collector. The call is best-effort; an error (a
// kernel without THP, a seccomp filter) leaves c on base pages.
func adviseHuge(c *chunkBuf) {
	start := uintptr(unsafe.Pointer(c))
	lo := start &^ (ChunkSize - 1)
	hi := (start + ChunkSize + ChunkSize - 1) &^ (ChunkSize - 1)
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_HUGEPAGE)
}
