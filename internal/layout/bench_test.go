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

// BenchmarkScatterBlocks times the cached block store: at a 2-block stride
// into an L2-sized array (len=4, len=8), and in the two geometries of a
// 512² transform's store legs, where every destination line of a call is
// 8–64 KiB from the last and each block waits on its own read for ownership
// unless the kernel prefetches it. One 512² op fills the whole 4 MiB
// destination once, call by call from a 256 KiB source (a pipeline buffer
// half): rows as 64-block runs at a 64 KiB stride, cols as 512-block runs at
// an 8 KiB stride, μ = 4.
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
	const side, mu = 512, 4
	for _, c := range []struct {
		name           string
		blocks, stride int
	}{
		{"512x512/rows", 64, 4096},
		{"512x512/cols", 512, 512},
	} {
		b.Run(c.name, func(b *testing.B) {
			src := cvec.Random(rand.New(rand.NewSource(4)), 1<<14)
			dst := make([]complex128, side*side)
			run := c.blocks * mu
			b.SetBytes(int64(len(dst) * 32))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := 0
				for off := 0; off < c.stride; off += mu {
					ScatterBlocks(dst, src[s:s+run], c.blocks, mu, off, c.stride)
					s = (s + run) % len(src)
				}
			}
		})
	}
}
