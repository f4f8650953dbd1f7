package kernels

import (
	"fmt"
	"testing"
)

// stageShapes are the (radix, m, s) Stockham stages the gated workloads run,
// with μ = 8 lanes on every pencil stage but the first: 512² rows and cols
// (cache2d: a radix-8 then a radix-16 stage before the folded radix-4), 256³
// x- and y/z-pencils (mem3d: two radix-16 stages) and n = 4096 (serve1d:
// three radix-16 stages). A shape with from4MiB set is cache2d's first sweep
// as it runs with the load folded into it: its source is a block of a 4 MiB
// array, the next block on every call, so each call reads a block L2 does not
// hold.
var stageShapes = []struct {
	name        string
	radix, m, s int
	from4MiB    bool
}{
	{"512rows", 8, 64, 1, false}, {"512rows", 8, 64, 1, true}, {"512rows", 16, 4, 8, false},
	{"512cols", 8, 64, 8, false}, {"512cols", 8, 64, 8, true}, {"512cols", 16, 4, 64, false},
	{"256x", 16, 16, 1, false}, {"256x", 16, 1, 16, false},
	{"256yz", 16, 16, 8, false}, {"256yz", 16, 1, 128, false},
	{"4096", 16, 256, 1, false}, {"4096", 16, 16, 16, false}, {"4096", 16, 1, 256, false},
}

// BenchmarkStage times one dispatched Stockham stage over a 256 KiB pipeline
// block (16384 elements, the L2-derived default b on a 2 MiB L2) of
// contiguous pencils, as a compute leg runs it, in ps per element: from a
// source block in L2, or (the src4MiB cases) out of place from a 4 MiB
// array, so that ps/elem includes the L3 reads the first sweep hides. `make
// kernelprobe` runs it on one thread.
func BenchmarkStage(b *testing.B) {
	const elems = 1 << 14
	const arrayElems = 1 << 18 // 4 MiB: 512²
	for _, c := range stageShapes {
		stride := c.radix * c.m * c.s
		name := fmt.Sprintf("%s/r%d/m%ds%d", c.name, c.radix, c.m, c.s)
		if c.from4MiB {
			name += "/src4MiB"
		}
		b.Run(name, func(b *testing.B) {
			pencils := elems / stride
			srcLen := pencils * stride
			if c.from4MiB {
				srcLen = arrayElems
			}
			src := randVec(1, srcLen)
			dst := make([]complex128, pencils*stride)
			tw := NewStageTwiddles(c.radix*c.m, c.radix, Forward)
			step := BatchRadix16Step
			if c.radix == 8 {
				step = BatchRadix8Step
			}
			b.SetBytes(int64(len(dst) * 32))
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i++ {
				step(dst, src[off:off+len(dst)], pencils, stride, c.m, c.s, Forward, tw)
				if off += len(dst); off == len(src) {
					off = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/float64(b.N)/float64(len(dst)), "ps/elem")
		})
	}
}
