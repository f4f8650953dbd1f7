package repro

// One testing.B benchmark per paper table/figure, exercising the real Go
// implementations at container-feasible sizes. The paper-scale series
// (512³–2048³ on the five §V machines) are regenerated by `go run
// ./cmd/fftbench -fig all`, which combines the performance model with the
// cache-simulator calibration; these benchmarks validate the *shapes* with
// actual execution. EXPERIMENTS.md cross-references both.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/shard"
	"repro/internal/spl"
	"repro/internal/stagegraph"
)

func benchInput(n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(1)), n)
}

func bench3D(b *testing.B, k, n, m int, opts core.Config) {
	p, err := core.NewPlan(opts, false, k, n, m)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	x := benchInput(k * n * m)
	y := make([]complex128, len(x))
	b.SetBytes(int64(len(x) * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBaseline times one of the in-place baselines of internal/bench on a
// fresh copy of the input each iteration, as its Measured sweeps do.
func benchBaseline(b *testing.B, elems int, baseline func(y []complex128)) {
	x := benchInput(elems)
	y := make([]complex128, len(x))
	b.SetBytes(int64(len(x) * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		baseline(y)
	}
}

// pencil3D and slab3D are the 3D baselines on a pool of two workers.
func pencil3D(b *testing.B, k, n, m int) {
	benchBaseline(b, k*n*m, func(y []complex128) { bench.Pencil3D(y, k, n, m, fft1d.Forward, 2) })
}

func slab3D(b *testing.B, k, n, m int) {
	benchBaseline(b, k*n*m, func(y []complex128) { bench.Slab3D(y, k, n, m, fft1d.Forward, 2) })
}

// BenchmarkFig1_3DPeakFraction is Fig. 1's comparison: the non-overlapped
// pencil baseline (MKL/FFTW-class memory behaviour) against the paper's
// double-buffered scheme on 2^k-shaped cubes.
func BenchmarkFig1_3DPeakFraction(b *testing.B) {
	for _, s := range [][3]int{{32, 32, 64}, {64, 64, 64}} {
		name := fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
		b.Run("pencil/"+name, func(b *testing.B) {
			pencil3D(b, s[0], s[1], s[2])
		})
		b.Run("doublebuf/"+name, func(b *testing.B) {
			bench3D(b, s[0], s[1], s[2], core.Config{
				DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 13,
			})
		})
	}
}

// BenchmarkTableI_SPLInterpretation measures the Table I construct
// interpreter on the 3D rotation factorization.
func BenchmarkTableI_SPLInterpretation(b *testing.B) {
	f := spl.DFT3DRotated(16, 16, 16)
	x := benchInput(16 * 16 * 16)
	y := make([]complex128, len(x))
	b.SetBytes(int64(len(x) * 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Apply(y, x)
	}
}

// BenchmarkTableII_SoftwarePipelining compares the Table II schedule — a
// one-stage graph on the stage-graph executor — against the same load,
// batched-FFT and store legs run back to back without overlap (the ablation
// the schedule exists for).
func BenchmarkTableII_SoftwarePipelining(b *testing.B) {
	const iters, blk, row = 16, 1 << 13, 512
	input := benchInput(iters * blk)
	output := make([]complex128, iters*blk)
	plan := fft1d.NewPlan(row)
	stages := []stagegraph.Stage{{
		Name: "rows", Iters: iters, Units: blk / row, UnitLen: row,
		Src: stagegraph.Endpoint{C: input}, Dst: stagegraph.Endpoint{C: output},
		Compute: func(bufs *stagegraph.Buffers, a *kernels.Arena, _ []complex128, half, _, lo, hi int) {
			if lo < hi {
				plan.BatchArena(bufs.C[half][lo*row:hi*row], hi-lo, fft1d.Forward, a)
			}
		},
		Rot: stagegraph.Rotation{Blocks: 1, BlockLen: row, Map: func(g, _ int) int { return g * row }},
	}}
	b.Run("pipelined", func(b *testing.B) {
		exec, err := stagegraph.NewExecutor(stagegraph.Config{DataWorkers: 1, ComputeWorkers: 1, ScratchComplex: blk})
		if err != nil {
			b.Fatal(err)
		}
		defer exec.Close()
		bufs, sched := stagegraph.NewBuffers(blk, false), stagegraph.Compile(stages, true)
		b.SetBytes(int64(iters * blk * 16))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(bufs, stages, sched, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		buf := make([]complex128, blk)
		b.SetBytes(int64(iters * blk * 16))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for it := 0; it < iters; it++ {
				copy(buf, input[it*blk:(it+1)*blk])
				plan.Batch(buf, blk/row, fft1d.Forward)
				copy(output[it*blk:(it+1)*blk], buf)
			}
		}
	})
}

// BenchmarkTableIII_DistributedStores measures the dual-socket transform
// whose stage-2/3 stores implement the Table III write matrices.
func BenchmarkTableIII_DistributedStores(b *testing.B) {
	benchLocal(b, 32, 32, 32, 2, 1<<11)
}

// benchLocal times the in-process slab-pencil plan over sk slabs.
func benchLocal(b *testing.B, k, n, m, sk, bufferElems int) {
	dp, err := shard.NewLocal(k, n, m, sk, 0, shard.WorkerOptions{BufferElems: bufferElems})
	if err != nil {
		b.Fatal(err)
	}
	defer dp.Close()
	src := benchInput(k * n * m)
	dst := make([]complex128, len(src))
	b.SetBytes(int64(k * n * m * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dp.Transform(dst, src, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_2DPeakFraction is Fig. 9's 2D comparison, including a
// wide-row shape whose transpose panels are thin (the TLB-droop regime).
func BenchmarkFig9_2DPeakFraction(b *testing.B) {
	for _, s := range [][2]int{{256, 256}, {64, 4096}} {
		name := fmt.Sprintf("%dx%d", s[0], s[1])
		b.Run("pencil/"+name, func(b *testing.B) {
			benchBaseline(b, s[0]*s[1], func(y []complex128) { bench.Pencil2D(y, s[0], s[1], fft1d.Forward, 2) })
		})
		b.Run("doublebuf/"+name, func(b *testing.B) {
			p, err := core.NewPlan(core.Config{BufferElems: 1 << 12}, false, s[0], s[1])
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			x := benchInput(s[0] * s[1])
			y := make([]complex128, len(x))
			b.SetBytes(int64(len(x) * 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Transform(y, x, fft1d.Forward); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10_TwoSocket compares single- against dual-socket execution
// of the distributed plan (Fig. 10's subject at container scale).
func BenchmarkFig10_TwoSocket(b *testing.B) {
	const k, n, m = 32, 32, 64
	for _, sk := range []int{1, 2} {
		b.Run(fmt.Sprintf("sockets-%d", sk), func(b *testing.B) {
			benchLocal(b, k, n, m, sk, 1<<11)
		})
	}
}

// BenchmarkFig11a_Decompositions runs all three decompositions (Fig. 11
// top-left's comparison) on one shape.
func BenchmarkFig11a_Decompositions(b *testing.B) {
	const k, n, m = 64, 64, 64
	b.Run("pencil", func(b *testing.B) {
		pencil3D(b, k, n, m)
	})
	b.Run("slab", func(b *testing.B) {
		slab3D(b, k, n, m)
	})
	b.Run("doublebuf", func(b *testing.B) {
		bench3D(b, k, n, m, core.Config{BufferElems: 1 << 13})
	})
}

// BenchmarkFig11b_SlabVsDoubleBuf isolates Fig. 11 top-right's story: on
// big-cache machines the slab decomposition (FFTW on AMD) closes part of
// the gap, because it makes one fewer memory round trip.
func BenchmarkFig11b_SlabVsDoubleBuf(b *testing.B) {
	const k, n, m = 32, 128, 128 // slabs fit comfortably in cache
	b.Run("slab", func(b *testing.B) {
		slab3D(b, k, n, m)
	})
	b.Run("doublebuf", func(b *testing.B) {
		bench3D(b, k, n, m, core.Config{BufferElems: 1 << 13})
	})
}

// BenchmarkFig11cd_SocketScaling measures the distributed plan at 1, 2 and
// 4 sockets on a fixed problem (Fig. 11 bottom's axis).
func BenchmarkFig11cd_SocketScaling(b *testing.B) {
	const k, n, m = 32, 32, 32
	for _, sk := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sockets-%d", sk), func(b *testing.B) {
			benchLocal(b, k, n, m, sk, 1<<10)
		})
	}
}

// BenchmarkPublicAPI exercises the facade the way a downstream user would.
func BenchmarkPublicAPI(b *testing.B) {
	p, err := NewFFT3D(64, 64, 64, WithBufferElems(1<<13))
	if err != nil {
		b.Fatal(err)
	}
	x := benchInput(p.Len())
	y := make([]complex128, p.Len())
	b.SetBytes(int64(p.Len() * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Forward(y, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageFusion is the A/B for the stage-graph executor's
// cross-stage pipeline fusion: the same 3D doublebuf transform with the
// steady state flowing through stage boundaries (fused, the default)
// versus draining the pipeline at every stage boundary (unfused).
func BenchmarkStageFusion(b *testing.B) {
	for _, c := range []struct {
		name    string
		unfused bool
	}{{"fused", false}, {"unfused", true}} {
		b.Run(c.name, func(b *testing.B) {
			defer stagegraph.SetAblation(stagegraph.Ablation{Unfused: c.unfused})()
			bench3D(b, 32, 32, 64, core.Config{
				Mu: 4, BufferElems: 1 << 11,
				DataWorkers: 2, ComputeWorkers: 2,
			})
		})
	}
}
