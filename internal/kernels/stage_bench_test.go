package kernels

import (
	"fmt"
	"testing"
)

// stageShapes are the (radix, m, s) Stockham stages the gated workloads run,
// with μ = 8 lanes on every pencil stage but the first: 512² rows and cols
// (cache2d: a radix-8 then a radix-16 stage before the folded radix-4), 256³
// x- and y/z-pencils (mem3d: two radix-16 stages) and n = 4096 (serve1d:
// three radix-16 stages).
var stageShapes = []struct {
	name        string
	radix, m, s int
}{
	{"512rows", 8, 64, 1}, {"512rows", 16, 4, 8},
	{"512cols", 8, 64, 8}, {"512cols", 16, 4, 64},
	{"256x", 16, 16, 1}, {"256x", 16, 1, 16},
	{"256yz", 16, 16, 8}, {"256yz", 16, 1, 128},
	{"4096", 16, 256, 1}, {"4096", 16, 16, 16}, {"4096", 16, 1, 256},
}

// BenchmarkStage times one dispatched Stockham stage over a 256 KiB pipeline
// block (16384 elements, the L2-derived default b on a 2 MiB L2) of
// contiguous pencils, as a compute leg runs it, in ps per element. `make
// kernelprobe` runs it on one thread.
func BenchmarkStage(b *testing.B) {
	const elems = 1 << 14
	for _, c := range stageShapes {
		stride := c.radix * c.m * c.s
		b.Run(fmt.Sprintf("%s/r%d/m%ds%d", c.name, c.radix, c.m, c.s), func(b *testing.B) {
			pencils := elems / stride
			src := randVec(1, pencils*stride)
			dst := make([]complex128, len(src))
			tw := NewStageTwiddles(c.radix*c.m, c.radix, Forward)
			step := BatchRadix16Step
			if c.radix == 8 {
				step = BatchRadix8Step
			}
			b.SetBytes(int64(len(src) * 32))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(dst, src, pencils, stride, c.m, c.s, Forward, tw)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/float64(b.N)/float64(len(src)), "ps/elem")
		})
	}
}
