//go:build linux

package layout

import (
	"runtime"
	"syscall"
	"unsafe"
)

// madvPopulateWrite is Linux's MADV_POPULATE_WRITE (5.14 and later), which
// the frozen syscall package does not name.
const madvPopulateWrite = 23

// madvise is the system call Prefault makes. Tests replace it to inject the
// EINVAL of a kernel older than 5.14.
var madvise = func(addr, n uintptr, advice int) error {
	if _, _, e := syscall.Syscall(syscall.SYS_MADVISE, addr, n, uintptr(advice)); e != 0 {
		return e
	}
	return nil
}

// pageSpan returns the page-aligned address range [lo, hi) that x's bytes
// occupy. The addresses stay uintptrs: the range may reach past x's own
// allocation into the rest of its first and last pages.
func pageSpan[E any](x []E) (lo, hi uintptr) {
	page := uintptr(syscall.Getpagesize())
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	hi = lo + uintptr(len(x))*unsafe.Sizeof(x[0])
	return lo &^ (page - 1), (hi + page - 1) &^ (page - 1)
}

// Cold reports whether the page holding x's first element is not resident —
// an allocation no one has written yet, whose first store would fault. It
// asks with one mincore; an empty x, and a page the kernel cannot report
// on, read warm.
func Cold[E any](x []E) bool {
	if len(x) == 0 {
		return false
	}
	lo, _ := pageSpan(x)
	var vec byte
	_, _, e := syscall.Syscall(syscall.SYS_MINCORE, lo, uintptr(syscall.Getpagesize()), uintptr(unsafe.Pointer(&vec)))
	runtime.KeepAlive(x)
	return e == 0 && vec&1 == 0
}

// Prefault makes every page x spans resident and writable in one
// madvise(MADV_POPULATE_WRITE), so later stores into x take no page fault.
// It changes no byte: a resident page is left as it is, and one that is not
// is faulted in with the contents a store would have found there. On error
// — EINVAL before Linux 5.14, EFAULT where the mapping cannot be written —
// the pages are as they were and fault on first store.
func Prefault[E any](x []E) error {
	if len(x) == 0 {
		return nil
	}
	lo, hi := pageSpan(x)
	err := madvise(lo, hi-lo, madvPopulateWrite)
	runtime.KeepAlive(x)
	return err
}
