//go:build amd64 && !purego

package kernels

import (
	"testing"

	"repro/internal/layout"
)

// sinkBenchShapes are the last Stockham passes of the one-lane streaming
// stages of 256³ (mem3d's) and 4096², μ = 8: a pipeline block of `units`
// pencils of r·s elements, stored through a rotation of G units into a
// 256 MiB destination. 4096²'s cols, a block past the buffer budget, keep
// their store leg in the product; the pass alone folds here too.
var sinkBenchShapes = []struct {
	name           string
	r, s, units, g int
}{
	{"256x", 16, 16, 64, 65536}, {"256yz", 16, 128, 8, 8192},
	{"4096rows", 16, 256, 4, 4096}, {"4096cols", 16, 2048, 1, 512},
}

// BenchmarkSinkStage times the last pass of a pipeline block with its store,
// in ps per element, two ways: "sink", the pass writing through the
// rotation into the destination (SinkStep), and "buffered+gather", the pass
// into the lane's buffer followed by the run-major streaming store
// (layout.GatherBlocksNT) — the store leg the sink folds away. The source
// block stays in L2; each call stores the next block of the 256 MiB
// destination, so the stores reach memory. On an AVX-512 host the "/w256"
// cases run both sides on the 256-bit codelets, which an AVX2 host
// dispatches. `make kernelprobe` runs it on one thread.
func BenchmarkSinkStage(b *testing.B) {
	if !useAVX2 {
		b.Skip("no AVX2/FMA codelet tier on this host")
	}
	defer func(w bool) { useAVX512 = w }(useAVX512)
	widths := []bool{hostAVX512}
	if hostAVX512 {
		widths = append(widths, false)
	}
	const mu, dstElems = 8, 1 << 24 // 256 MiB
	dst := lineVec(dstElems)
	for i := range dst { // fault the destination in outside the timings
		dst[i] = 0
	}
	for _, c := range sinkBenchShapes {
		stride := c.r * c.s
		n := c.units * stride
		src, buf := randVec(1, n), make([]complex128, n)
		tw := NewStageTwiddles(c.r, c.r, Forward)
		blocks, js := stride/mu, c.g*mu
		for _, w512 := range widths {
			for _, sink := range []bool{true, false} {
				name := c.name + "/buffered+gather"
				if sink {
					name = c.name + "/sink"
				}
				if hostAVX512 && !w512 {
					name += "/w256"
				}
				useAVX512 = w512
				b.Run(name, func(b *testing.B) {
					b.SetBytes(int64(n * 32))
					iter := 0
					for i := 0; i < b.N; i++ {
						off := iter * c.units * mu
						if iter++; iter == c.g/c.units {
							iter = 0
						}
						if sink {
							sk := Sink{Dst: dst, Off: off, Pitch: mu, JStride: js, BlockLen: mu}
							if !SinkStep(c.r, src, c.units, stride, 1, c.s, Forward, &tw, nil, &sk) {
								b.Fatal("the sink declined")
							}
						} else {
							BatchStep(c.r, buf, src, c.units, stride, 1, c.s, Forward, tw, nil)
							layout.GatherBlocksNT(dst[off:off+(blocks-1)*js+c.units*mu], buf, blocks, c.units, mu, stride, js, 0)
						}
						layout.StoreFence()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/float64(b.N)/float64(n), "ps/elem")
				})
			}
		}
	}
}
