package fft2d

import (
	"fmt"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/stagegraph"
)

// buildStages compiles the plan's two-stage SPL factorization into a stage
// graph. Stage 1 reads src and produces the blocked-transposed
// intermediate in the work array; stage 2 reads the intermediate and
// produces dst in the original row-major layout. Both stages load
// contiguous blocks, compute contiguous pencils, and store at cacheline
// granularity; in split format the stage-1 load fuses the
// interleaved→split conversion and the stage-2 store fuses split→
// interleaved (§IV-A).
//
// The graph is built once at plan time and cached: the compute closures
// read the transform direction from p.curSign (set under the plan lock
// before each run), and the per-call src/dst endpoints are patched into
// the cached stages — so a reused plan's Transform rebuilds nothing.
func (p *Plan) buildStages() []stagegraph.Stage {
	var dst, src []complex128 // the caller's arrays: bound per call by doubleBuf
	n, m, mu, mb := p.n, p.m, p.opts.Mu, p.mb
	rows, xbs := p.rows1, p.xbs2
	rowLen := n * mu

	// ---- Stage 1: (L_{m/μ}^{mn/μ} ⊗ I_μ) (I_n ⊗ DFT_m) ----
	s1 := stagegraph.Stage{
		Name: "rows", Iters: n / rows, Units: rows, UnitLen: m,
		Src: stagegraph.Endpoint{C: src},
		// Blocked transpose: buffer row r (global row g), block xb →
		// work[(xb·n + g)·μ …].
		Rot: stagegraph.Rotation{Blocks: mb, BlockLen: mu, JStride: n * mu,
			Map: func(g, xb int) int { return (xb*n + g) * mu }},
	}
	// ---- Stage 2: (L_n^{mn/μ} ⊗ I_μ) (I_{m/μ} ⊗ DFT_n ⊗ I_μ) ----
	s2 := stagegraph.Stage{
		Name: "cols", Iters: mb / xbs, Units: xbs, UnitLen: rowLen,
		Dst: stagegraph.Endpoint{C: dst},
		// Transpose back: buffer xb-row (global block-column g), row r →
		// dst[(r·mb + g)·μ …] = original row-major layout.
		Rot: stagegraph.Rotation{Blocks: n, BlockLen: mu, JStride: mb * mu,
			Map: func(g, r int) int { return (r*mb + g) * mu }},
	}

	if p.opts.SplitFormat {
		s1.Dst = stagegraph.Endpoint{Re: p.workRe, Im: p.workIm}
		s2.Src = stagegraph.Endpoint{Re: p.workRe, Im: p.workIm}
		s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			if lo < hi {
				p.rowPlan.BatchSplitArena(b.Re[half][lo*m:hi*m], b.Im[half][lo*m:hi*m], hi-lo, p.curSign, a)
			}
		}
		s2.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			if lo < hi {
				s, e := lo*rowLen, hi*rowLen
				p.colPlan.BatchLanesSplitArena(b.Re[half][s:e], b.Im[half][s:e], hi-lo, mu, p.curSign, a)
			}
		}
	} else {
		s1.Dst = stagegraph.Endpoint{C: p.work}
		s2.Src = stagegraph.Endpoint{C: p.work}
		// Store-folded stages: compute runs every Stockham sweep but the
		// last, and the scatter leg applies the trailing trivial-twiddle
		// radix-4 butterfly while the block is still cache-hot — one fewer
		// full pass over the buffer per stage. StoreSign is patched per
		// call alongside curSign.
		if p.rowPlan.FoldRadix() == 4 && mb%4 == 0 && !p.opts.DisableStoreFold {
			s1.StoreRadix = 4
			s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					p.rowPlan.BatchLanesPrefixArena(b.C[half][lo*m:hi*m], hi-lo, 1, p.curSign, a)
				}
			}
		} else {
			s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					p.rowPlan.BatchArena(b.C[half][lo*m:hi*m], hi-lo, p.curSign, a)
				}
			}
		}
		if p.colPlan.FoldRadix() == 4 && n%4 == 0 && !p.opts.DisableStoreFold {
			s2.StoreRadix = 4
			s2.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					s, e := lo*rowLen, hi*rowLen
					p.colPlan.BatchLanesPrefixArena(b.C[half][s:e], hi-lo, mu, p.curSign, a)
				}
			}
		} else {
			s2.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					p.colPlan.BatchLanesArena(b.C[half][lo*rowLen:hi*rowLen], hi-lo, mu, p.curSign, a)
				}
			}
		}
		// A normalized inverse (curScale ≠ 0) scales each stage-2 block
		// while it is still in cache; see Plan.scaleInStage.
		inner := s2.Compute
		s2.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			inner(b, a, half, iter, lo, hi)
			if p.curScale != 0 && lo < hi {
				fft1d.Scale(b.C[half][lo*rowLen:hi*rowLen], p.curScale)
			}
		}
	}
	return []stagegraph.Stage{s1, s2}
}

// doubleBuf executes the cached stage graph on the plan's persistent
// executor: patch the per-call endpoints and direction into the compiled
// stages, wake the parked workers, and collect whole-transform stats. In
// steady state this spawns no goroutines and performs no heap allocations.
func (p *Plan) doubleBuf(dst, src []complex128, sign int, scale float64) error {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return fmt.Errorf("fft2d: plan closed")
	}
	p.curSign, p.curScale = sign, scale
	for i := range p.stages {
		if p.stages[i].StoreRadix != 0 {
			p.stages[i].StoreSign = sign
		}
	}
	p.stages[0].Src.C = src
	p.stages[1].Dst.C = dst
	st, err := p.exec.Run(p.bufs, p.stages, p.sched, p.opts.Tracer)
	p.stages[0].Src.C = nil
	p.stages[1].Dst.C = nil
	if err != nil {
		return err
	}
	p.lastStats = st
	return nil
}
