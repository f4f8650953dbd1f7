//go:build linux && amd64 && !purego

package layout

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/cpufeat"
)

// guardedFloats maps a read-write region followed by a PROT_NONE guard page
// and returns the last n float64 of the read-write part, so the slice ends
// exactly where the guard begins.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	rw := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, rw+page, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[rw:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[rw-n*8])), n)
}

// A flush faults like a load on an inaccessible page, so the kernel must
// stop at the line holding the slice's last byte. With a PROT_NONE guard
// right after the slice, every length — whole lines, a partial last line, a
// start off a line boundary — must flush through both kernels without a
// fault and leave the contents as they were.
func TestEvictStopsAtGuardPage(t *testing.T) {
	if !EvictAvailable() {
		t.Fatal("EvictAvailable false on amd64")
	}
	defer func(opt bool) { hasCLFLUSHOPT = opt }(hasCLFLUSHOPT)
	for _, opt := range []bool{false, true} {
		if opt && !cpufeat.X86.HasCLFLUSHOPT {
			continue
		}
		hasCLFLUSHOPT = opt
		for _, n := range []int{1, 7, 8, 9, 64, 1000, 4096} {
			t.Run(fmt.Sprintf("clflushopt=%v/n=%d", opt, n), func(t *testing.T) {
				b := guardedFloats(t, n)
				for i := range b {
					b[i] = float64(i) + 0.5
				}
				Evict(b)
				Evict(b[1:]) // a start off the line boundary
				for i := range b {
					if b[i] != float64(i)+0.5 {
						t.Fatalf("b[%d] = %v after Evict, want %v", i, b[i], float64(i)+0.5)
					}
				}
			})
		}
	}
	Evict(nil)
}
