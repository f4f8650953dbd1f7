package fft1d

import (
	"fmt"
	"testing"
)

// executeSizes are the powers of two 4096 and 2¹⁶, sizes with odd factors
// beside them (3·2¹⁰, 5·2¹⁰, 15·2¹⁰, 3·2¹⁵, 5·2¹⁴, 1000) and the primes 4093
// and 65537.
var executeSizes = []int{4096, 3 << 10, 5 << 10, 15 << 10, 4093,
	1 << 16, 3 << 15, 5 << 14, 1000, 65537}

// BenchmarkExecute times one forward Plan.Transform per size from a warm
// pooled arena — what a complex 1D plan executes — in ns per element.
// `make kernelprobe` runs 4096, 3·2¹⁰, 5·2¹⁰, 15·2¹⁰ and 4093 on one thread.
func BenchmarkExecute(b *testing.B) {
	for _, n := range executeSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			p := NewPlan(n)
			x := randVec(1, n)
			y := make([]complex128, n)
			p.Transform(y, x, Forward)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Transform(y, x, Forward)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
