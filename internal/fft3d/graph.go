package fft3d

import (
	"fmt"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/stagegraph"
)

// buildStages compiles the plan's three-stage SPL factorization into a
// stage graph.
//
// Interleaved array flow: stage 1 src→dst, stage 2 dst→work, stage 3
// work→dst, so the input is preserved and only one internal work array is
// needed. The fused schedule keeps this safe: stage 3's first store runs
// strictly after stage 2's last load of dst (see stagegraph.BuildSchedule).
// Split-format flow: stage 1 src→(workRe/Im) with a fused deinterleave in
// the load; stage 2 (workRe/Im)→(wrk2Re/Im); stage 3 (wrk2Re/Im)→dst with
// a fused interleave in the store — the middle stages never touch
// interleaved data (§IV-A).
//
// Intermediate layouts (all row-major, μ-element blocks as atoms):
//
//	after stage 1: (m/μ) × k × n × μ   blocks (xb, z, y)
//	after stage 2: n × (m/μ) × k × μ   blocks (y, xb, z)
//	after stage 3: k × n × (m/μ) × μ   = original k×n×m
//
// The graph is built once at plan time and cached: compute closures read
// the direction from p.curSign (set under the plan lock) and the per-call
// src/dst endpoints are patched into the cached stages.
func (p *Plan) buildStages() []stagegraph.Stage {
	var dst, src []complex128 // the caller's arrays: bound per call by doubleBuf
	k, n, mu, mb := p.k, p.n, p.opts.Mu, p.mb
	m := p.m
	rows, units2, units3 := p.rows1, p.units2, p.units3

	// ---- Stage 1: (K_{m/μ}^{k,n} ⊗ I_μ) (I_{kn} ⊗ DFT_m) ----
	s1 := stagegraph.Stage{
		Name: "x-pencils", Iters: k * n / rows, Units: rows, UnitLen: m,
		// Pencil g = z·n + y goes to blocks (xb, z, y).
		Rot: stagegraph.Rotation{Blocks: mb, BlockLen: mu, JStride: k * n * mu,
			Map: func(g, xb int) int {
				z, y := g/n, g%n
				return ((xb*k+z)*n + y) * mu
			}},
	}
	// ---- Stage 2: (K_n^{m/μ,k} ⊗ I_μ) (I_{mk/μ} ⊗ DFT_n ⊗ I_μ) ----
	s2 := stagegraph.Stage{
		Name: "y-pencils", Iters: mb * k / units2, Units: units2, UnitLen: n * mu,
		// Unit h = xb·k + z goes to blocks (y, xb, z).
		Rot: stagegraph.Rotation{Blocks: n, BlockLen: mu, JStride: mb * k * mu,
			Map: func(g, y int) int {
				xb, z := g/k, g%k
				return ((y*mb+xb)*k + z) * mu
			}},
	}
	// ---- Stage 3: (K_k^{n,m/μ} ⊗ I_μ) (I_{nm/μ} ⊗ DFT_k ⊗ I_μ) ----
	s3 := stagegraph.Stage{
		Name: "z-pencils", Iters: n * mb / units3, Units: units3, UnitLen: k * mu,
		// Unit q = y·mb + xb goes to blocks (z, y, xb): the original
		// row-major layout.
		Rot: stagegraph.Rotation{Blocks: k, BlockLen: mu, JStride: n * mb * mu,
			Map: func(g, z int) int {
				y, xb := g/mb, g%mb
				return ((z*n+y)*mb + xb) * mu
			}},
	}

	if p.opts.SplitFormat {
		s1.Src = stagegraph.Endpoint{C: src}
		s1.Dst = stagegraph.Endpoint{Re: p.workRe, Im: p.workIm}
		s2.Src = stagegraph.Endpoint{Re: p.workRe, Im: p.workIm}
		s2.Dst = stagegraph.Endpoint{Re: p.wrk2Re, Im: p.wrk2Im}
		s3.Src = stagegraph.Endpoint{Re: p.wrk2Re, Im: p.wrk2Im}
		s3.Dst = stagegraph.Endpoint{C: dst}
		s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			if lo < hi {
				p.planM.BatchSplitArena(b.Re[half][lo*m:hi*m], b.Im[half][lo*m:hi*m], hi-lo, p.curSign, a)
			}
		}
		s2.Compute = p.lanesSplit(p.planN, n*mu, mu)
		s3.Compute = p.lanesSplit(p.planK, k*mu, mu)
	} else {
		s1.Src = stagegraph.Endpoint{C: src}
		s1.Dst = stagegraph.Endpoint{C: dst}
		s2.Src = stagegraph.Endpoint{C: dst}
		s2.Dst = stagegraph.Endpoint{C: p.work}
		s3.Src = stagegraph.Endpoint{C: p.work}
		s3.Dst = stagegraph.Endpoint{C: dst}
		// Store-folded stages: compute runs every Stockham sweep but the
		// last, and the scatter leg applies the trailing trivial-twiddle
		// radix-4 butterfly while the block is still cache-hot — one fewer
		// full pass over the buffer per stage. StoreSign is patched per
		// call alongside curSign.
		if p.planM.FoldRadix() == 4 && mb%4 == 0 && !p.opts.DisableStoreFold {
			s1.StoreRadix = 4
			s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					p.planM.BatchLanesPrefixArena(b.C[half][lo*m:hi*m], hi-lo, 1, p.curSign, a)
				}
			}
		} else {
			s1.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
				if lo < hi {
					p.planM.BatchArena(b.C[half][lo*m:hi*m], hi-lo, p.curSign, a)
				}
			}
		}
		if p.planN.FoldRadix() == 4 && n%4 == 0 && !p.opts.DisableStoreFold {
			s2.StoreRadix = 4
			s2.Compute = p.lanesPrefix(p.planN, n*mu, mu)
		} else {
			s2.Compute = p.lanes(p.planN, n*mu, mu)
		}
		if p.planK.FoldRadix() == 4 && k%4 == 0 && !p.opts.DisableStoreFold {
			s3.StoreRadix = 4
			s3.Compute = p.lanesPrefix(p.planK, k*mu, mu)
		} else {
			s3.Compute = p.lanes(p.planK, k*mu, mu)
		}
		// A normalized inverse (curScale ≠ 0) scales each stage-3 block
		// while it is still in cache; see Plan.scaleInStage.
		inner := s3.Compute
		s3.Compute = func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			inner(b, a, half, iter, lo, hi)
			if p.curScale != 0 && lo < hi {
				fft1d.Scale(b.C[half][lo*k*mu:hi*k*mu], p.curScale)
			}
		}
	}
	return []stagegraph.Stage{s1, s2, s3}
}

// lanes returns a compute hook applying plan ⊗ I_μ over every unit of
// unitLen elements in the worker's range — one batched Stockham sweep
// across all hi−lo contiguous units.
func (p *Plan) lanes(plan *fft1d.Plan, unitLen, mu int) stagegraph.ComputeFn {
	return func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
		if lo < hi {
			plan.BatchLanesArena(b.C[half][lo*unitLen:hi*unitLen], hi-lo, mu, p.curSign, a)
		}
	}
}

// lanesPrefix is lanes for a store-folded stage: every Stockham sweep but
// the trailing radix-4 butterfly, which the scatter leg applies.
func (p *Plan) lanesPrefix(plan *fft1d.Plan, unitLen, mu int) stagegraph.ComputeFn {
	return func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
		if lo < hi {
			plan.BatchLanesPrefixArena(b.C[half][lo*unitLen:hi*unitLen], hi-lo, mu, p.curSign, a)
		}
	}
}

func (p *Plan) lanesSplit(plan *fft1d.Plan, unitLen, mu int) stagegraph.ComputeFn {
	return func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
		if lo < hi {
			s, e := lo*unitLen, hi*unitLen
			plan.BatchLanesSplitArena(b.Re[half][s:e], b.Im[half][s:e], hi-lo, mu, p.curSign, a)
		}
	}
}

// doubleBuf executes the cached three-stage graph on the plan's persistent
// executor: patch the per-call endpoints and direction into the compiled
// stages, wake the parked workers, and collect whole-transform stats. In
// steady state this spawns no goroutines and performs no heap allocations.
func (p *Plan) doubleBuf(dst, src []complex128, sign int, scale float64) error {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return fmt.Errorf("fft3d: plan closed")
	}
	p.curSign, p.curScale = sign, scale
	for i := range p.stages {
		if p.stages[i].StoreRadix != 0 {
			p.stages[i].StoreSign = sign
		}
	}
	if p.opts.SplitFormat {
		p.stages[0].Src.C = src
		p.stages[2].Dst.C = dst
	} else {
		p.stages[0].Src.C = src
		p.stages[0].Dst.C = dst
		p.stages[1].Src.C = dst
		p.stages[2].Dst.C = dst
	}
	st, err := p.exec.Run(p.bufs, p.stages, p.sched, p.opts.Tracer)
	if p.opts.SplitFormat {
		p.stages[0].Src.C = nil
		p.stages[2].Dst.C = nil
	} else {
		p.stages[0].Src.C = nil
		p.stages[0].Dst.C = nil
		p.stages[1].Src.C = nil
		p.stages[2].Dst.C = nil
	}
	if err != nil {
		return err
	}
	p.lastStats = st
	return nil
}
