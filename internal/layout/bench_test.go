package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cvec"
)

// Every benchmark reports streaming bandwidth via SetBytes: each complex128
// element is read once and written once, 32 B of traffic — directly
// comparable to internal/stream's copy bandwidth (MB/s column ÷ 1000 ≈ GB/s).

func benchShape2D() (rows, cols int) { return 256, 256 }

func BenchmarkTransposeBlocked(b *testing.B) {
	rows, cols := benchShape2D()
	for _, mu := range []int{4, 8} {
		for _, impl := range []struct {
			name string
			fn   func(dst, src []complex128, rows, cols, mu int)
		}{
			{"kernel", TransposeBlocked},
			{"generic", TransposeBlockedGeneric},
		} {
			b.Run(fmt.Sprintf("mu=%d/%s", mu, impl.name), func(b *testing.B) {
				total := rows * cols * mu
				src := cvec.Random(rand.New(rand.NewSource(1)), total)
				dst := make([]complex128, total)
				b.SetBytes(int64(total * 32))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.fn(dst, src, rows, cols, mu)
				}
			})
		}
	}
}

func BenchmarkRotate3DBlocked(b *testing.B) {
	const k, n, mb = 32, 32, 64
	for _, mu := range []int{4, 8} {
		for _, impl := range []struct {
			name string
			fn   func(dst, src []complex128, k, n, mb, mu int)
		}{
			{"kernel", Rotate3DBlocked},
			{"generic", Rotate3DBlockedGeneric},
		} {
			b.Run(fmt.Sprintf("mu=%d/%s", mu, impl.name), func(b *testing.B) {
				total := k * n * mb * mu
				src := cvec.Random(rand.New(rand.NewSource(2)), total)
				dst := make([]complex128, total)
				b.SetBytes(int64(total * 32))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.fn(dst, src, k, n, mb, mu)
				}
			})
		}
	}
}

func BenchmarkScatterBlocks(b *testing.B) {
	const blocks = 4096
	for _, blockLen := range []int{4, 8} {
		b.Run(fmt.Sprintf("len=%d", blockLen), func(b *testing.B) {
			n := blocks * blockLen
			src := cvec.Random(rand.New(rand.NewSource(4)), n)
			stride := blockLen * 2
			dst := make([]complex128, (blocks-1)*stride+blockLen)
			b.SetBytes(int64(n * 32))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScatterBlocks(dst, src, blocks, blockLen, 0, stride)
			}
		})
	}
}

func BenchmarkRotate3DElementwise(b *testing.B) {
	const k, n, m = 32, 32, 256
	total := k * n * m
	src := cvec.Random(rand.New(rand.NewSource(5)), total)
	dst := make([]complex128, total)
	b.SetBytes(int64(total * 32))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Rotate3D(dst, src, k, n, m)
	}
}
