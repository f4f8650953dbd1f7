package kernels

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/layout"
)

// guardedTail maps a read-write region followed by a PROT_NONE guard of
// guardBytes and returns the last n complex128 of the read-write part, so
// the slice ends exactly where the guard begins.
func guardedTail(t *testing.T, n, guardBytes int) []complex128 {
	t.Helper()
	page := syscall.Getpagesize()
	rw := (n*16 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, rw+guardBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[rw:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*complex128)(unsafe.Pointer(&mem[rw-n*16])), n)
}

// The cached store kernels prefetch their destination a few blocks past the
// block they store, so a call whose last block ends the destination
// prefetches into whatever follows. Prefetches never fault: with a PROT_NONE
// guard right after the destination, every cached store — the generated
// scatter into complex and pair-packed real arrays, and the fold-scatter
// plain and scaled — must finish and write what its Go counterpart writes.
func TestCachedStoresPrefetchIntoGuardPage(t *testing.T) {
	const guard = 1 << 20 // past ahead blocks at the widest stride
	r := rand.New(rand.NewSource(17))
	for _, c := range []struct{ blocks, bl, stride int }{
		{16, 4, 4}, {9, 2, 2}, {64, 4, 512}, {64, 8, 512}, {12, 4, 4096}, {12, 8, 4096},
	} {
		t.Run(fmt.Sprintf("blocks=%d/len=%d/stride=%d", c.blocks, c.bl, c.stride), func(t *testing.T) {
			n := c.blocks * c.bl
			extent := (c.blocks-1)*c.stride + c.bl
			dst := guardedTail(t, extent, guard)
			src := randComplex(r, n)

			want := make([]complex128, extent)
			for j := 0; j < c.blocks; j++ {
				copy(want[j*c.stride:], src[j*c.bl:(j+1)*c.bl])
			}
			layout.ScatterBlocks(dst, src, c.blocks, c.bl, 0, c.stride)
			equalC(t, "ScatterBlocks", dst, want)

			pairs := unsafe.Slice((*float64)(unsafe.Pointer(&dst[0])), 2*extent)
			clear(dst)
			layout.ScatterBlocksPairs(pairs, src, c.blocks, c.bl, 0, c.stride)
			equalC(t, "ScatterBlocksPairs", dst, want)

			z0, z1, z2, z3 := randComplex(r, n), randComplex(r, n), randComplex(r, n), randComplex(r, n)
			folded := make([]complex128, n)
			for _, scale := range []float64{0, 1.0 / 3} {
				for leg := 0; leg < 4; leg++ {
					clear(dst)
					if !Radix4FoldScatter(dst, z0, z1, z2, z3, c.blocks, c.bl, 0, c.stride, leg, Inverse, scale) {
						if Tier() != "generic" {
							t.Fatalf("fold-scatter declined leg %d", leg)
						}
						continue
					}
					Radix4FoldLegGeneric(folded, z0, z1, z2, z3, leg, Inverse)
					for i := range folded {
						if scale != 0 {
							folded[i] *= complex(scale, 0)
						}
					}
					clear(want)
					for j := 0; j < c.blocks; j++ {
						copy(want[j*c.stride:], folded[j*c.bl:(j+1)*c.bl])
					}
					equalC(t, fmt.Sprintf("Radix4FoldScatter leg %d scale %g", leg, scale), dst, want)
				}
			}
		})
	}
}

func equalC(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
