// Package fft1dlarge applies the paper's double-buffering machinery to
// large one-dimensional FFTs via the six-step (Bailey) factorization.
//
// The paper's earlier SPIRAL work targeted medium 1D FFTs without
// compute/communication overlap (§V); this package is the natural
// extension: split N = n1·n2 and use the transposed Cooley–Tukey form
//
//	DFT_N = L_{n1}^{N} (I_{n2} ⊗ DFT_{n1}) L_{n2}^{N} D_{n2}^{N} (I_{n1} ⊗ DFT_{n2}) L_{n1}^{N},
//
// in which every FFT runs over contiguous rows and all data movement is
// three stride permutations. The three permutations compile into one
// three-stage graph executed by the shared stagegraph engine: data workers
// stream whole rows into the double buffer, compute workers run the batched
// row FFTs (plus the twiddle scaling) and transpose the row group in cache
// into the staging half, and the store writes whole column blocks — so main
// memory sees only contiguous reads and block-granular writes, the same
// access discipline as the paper's multi-dimensional stages. With fusion
// (the default) the whole 1D transform is a single pipeline that drains
// once, not three back-to-back passes.
package fft1dlarge

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/trace"
	"repro/internal/twiddle"
)

// Options size the pipeline.
type Options struct {
	// DataWorkers / ComputeWorkers as in the multi-dimensional plans.
	DataWorkers    int
	ComputeWorkers int
	// BufferElems is the per-half block size in complex elements (default
	// defaultBufferElems).
	BufferElems int
	// MinN is the size below which the plan falls back to the plain
	// in-cache 1D FFT (default 1<<12 — smaller transforms fit in cache
	// and gain nothing from streaming).
	MinN int
	// Radix caps the Stockham stage radix of the power-of-two row sub-plans
	// (0 = default 16, the fused two-stage codelet tier; 2, 4 and 8 select
	// the higher-pass-count mixes for tuning/ablation).
	Radix int
	// Unfused disables cross-stage pipeline fusion (each permutation
	// drains the pipeline before the next begins); fusion is the default.
	Unfused bool
	// Tracer records pipeline events for schedule verification.
	Tracer *trace.Recorder
}

// defaultBufferElems is this package's own default, not
// machine.PreferredBufferElems: each block is transposed through a staging
// half, and a larger block means longer contiguous column stores. Measured
// forward sweep on the 2 MiB-L2 reference host (EXPERIMENTS.md "Six-step
// buffer size"): 2¹⁵ is 21 % slower than 2¹⁶ at n = 2²⁴ and 14 % at 2²²;
// 2¹⁷ gains 12 % at 2²⁴ but loses 10 % at 2¹⁸–2²⁰. 2¹⁶ is also what every
// public caller passed before the plan packages owned their defaults.
const defaultBufferElems = 1 << 16

func (o Options) withDefaults() Options {
	if o.DataWorkers == 0 {
		o.DataWorkers = 1
	}
	if o.ComputeWorkers == 0 {
		o.ComputeWorkers = 1
	}
	if o.BufferElems == 0 {
		o.BufferElems = defaultBufferElems
	}
	if o.MinN == 0 {
		o.MinN = 1 << 12
	}
	return o
}

// Plan is a reusable large-1D FFT plan.
type Plan struct {
	n      int
	n1, n2 int         // n = n1·n2
	direct *fft1d.Plan // small-n fallback
	p1, p2 *fft1d.Plan

	opts Options

	w1, w2 []complex128 // full-size intermediates
	bufs   *stagegraph.Buffers

	// Cached stage graph, compiled schedule, and persistent executor; per
	// call only the src/dst endpoints and curSign are patched.
	stages  []stagegraph.Stage
	sched   *stagegraph.Schedule
	exec    *stagegraph.Executor
	curSign int
	// curScale, when non-zero, is the 1/n the last stage applies to its
	// rows while they are still in cache (Inverse); patched like curSign.
	curScale float64

	obs      *obs.Collector
	obsUnreg func()

	lock      sync.Mutex // w1/w2/bufs are shared scratch
	closed    bool
	refs      atomic.Int32
	lastStats stagegraph.Stats
}

// NewPlan builds a large-1D plan for size n ≥ 1.
func NewPlan(n int, opts Options) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft1dlarge: invalid size %d", n)
	}
	opts = opts.withDefaults()
	switch opts.Radix {
	case 0, 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("fft1dlarge: radix must be 0, 2, 4, 8 or 16, got %d", opts.Radix)
	}
	p := &Plan{n: n, opts: opts}
	p.refs.Store(1)
	n1, n2 := split(n)
	if n < opts.MinN || n2 == 1 {
		p.direct = fft1d.NewPlanRadix(n, opts.Radix)
		return p, nil
	}
	p.n1, p.n2 = n1, n2
	p.p1 = fft1d.NewPlanRadix(n1, opts.Radix)
	p.p2 = fft1d.NewPlanRadix(n2, opts.Radix)
	p.w1 = make([]complex128, n)
	p.w2 = make([]complex128, n)
	// Each half must hold at least one row of the wider stage.
	b := opts.BufferElems
	if b < n1 {
		b = n1
	}
	if b > n {
		b = n
	}
	p.bufs = stagegraph.NewBuffers(b, false, true)
	p.stages = p.buildStages(nil, nil)
	p.sched = stagegraph.Compile(p.stages, !opts.Unfused)
	names := make([]string, len(p.stages))
	for i := range p.stages {
		names[i] = p.stages[i].Name
	}
	p.obs = obs.NewCollector(opts.DataWorkers, opts.ComputeWorkers, names)
	_, p.obsUnreg = obs.Default.Register(fmt.Sprintf("fft1dlarge/%d", n), p.obs)
	exec, err := stagegraph.NewExecutor(stagegraph.Config{
		DataWorkers:    opts.DataWorkers,
		ComputeWorkers: opts.ComputeWorkers,
		ScratchComplex: b,
		Obs:            p.obs,
	})
	if err != nil {
		return nil, err
	}
	p.exec = exec
	// Backstop for callers that drop the plan without Close: once the plan
	// is unreachable no Run can be in flight, so the finalizer may release
	// the parked workers regardless of the reference count.
	runtime.SetFinalizer(p, (*Plan).closeNow)
	return p, nil
}

// Retain adds a reference to the plan for shared-cache use: each reference
// (including the one a new plan starts with) must be dropped by exactly
// one Close; the worker team is released when the last reference drains.
func (p *Plan) Retain() { p.refs.Add(1) }

// Close drops one plan reference; the last drop releases the persistent
// executor workers. Releasing is idempotent and safe to call concurrently
// — with other Close calls and with a Transform in flight (it waits for
// the transform to finish; later Transforms return an error). Plans
// dropped without Close are cleaned up by a finalizer.
func (p *Plan) Close() {
	if p.refs.Add(-1) > 0 {
		return
	}
	p.closeNow()
}

// closeNow unconditionally releases the workers; it is the finalizer
// target, so it must not depend on the reference count.
func (p *Plan) closeNow() {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.exec != nil {
		p.exec.Close()
		runtime.SetFinalizer(p, nil)
	}
	if p.obsUnreg != nil {
		p.obsUnreg()
		p.obsUnreg = nil
	}
}

// split returns a balanced factorization n = n1·n2 with n1 ≥ n2 and n2 as
// large as possible; (n, 1) when n is prime.
func split(n int) (int, int) {
	n1, n2 := n, 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			n1, n2 = n/d, d
		}
	}
	return n1, n2
}

// N returns the transform size.
func (p *Plan) N() int { return p.n }

// Split returns the factorization (n1, n2); (n, 1) for the direct fallback.
func (p *Plan) Split() (int, int) {
	if p.direct != nil {
		return p.n, 1
	}
	return p.n1, p.n2
}

// Direct reports whether the plan fell back to the in-cache 1D FFT.
func (p *Plan) Direct() bool { return p.direct != nil }

// Transform computes dst = DFT_n(src), unnormalized, out of place. dst and
// src must not overlap.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	return p.transform(dst, src, sign, 0)
}

// Inverse computes the normalized inverse out of place: Transform(dst, src,
// fft1d.Inverse) followed by fft1d.Scale(dst, 1/n), bitwise, with the scale
// applied to the last stage's rows in cache instead of in a pass over dst.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.transform(dst, src, fft1d.Inverse, 1/float64(p.n))
}

func (p *Plan) transform(dst, src []complex128, sign int, scale float64) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("fft1dlarge: lengths dst=%d src=%d, want %d", len(dst), len(src), p.n)
	}
	if p.direct != nil {
		p.direct.Transform(dst, src, sign)
		if scale != 0 {
			fft1d.Scale(dst, scale)
		}
		return nil
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return fmt.Errorf("fft1dlarge: plan closed")
	}
	p.curSign, p.curScale = sign, scale
	p.stages[0].Src.C = src
	p.stages[2].Dst.C = dst
	st, err := p.exec.Run(p.bufs, p.stages, p.sched, p.opts.Tracer)
	p.stages[0].Src.C = nil
	p.stages[2].Dst.C = nil
	if err != nil {
		return err
	}
	p.lastStats = st
	return nil
}

// Stats returns the whole-transform executor stats of the most recent
// Transform (zero value before the first, or for the direct fallback).
func (p *Plan) Stats() stagegraph.Stats {
	p.lock.Lock()
	defer p.lock.Unlock()
	return p.lastStats
}

// Obs returns the plan's telemetry collector (nil for the direct fallback).
// The collector is live: snapshots taken from it reflect every transform
// the plan has run.
func (p *Plan) Obs() *obs.Collector { return p.obs }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed (zero value for the direct fallback).
func (p *Plan) Observability() obs.Snapshot { return p.obs.Snapshot() }

// DescribeGraph renders the compiled stage graph the plan would execute;
// empty for the direct fallback.
func (p *Plan) DescribeGraph() string {
	if p.direct != nil {
		return ""
	}
	return stagegraph.Describe(p.buildStages(nil, nil), !p.opts.Unfused)
}

// buildStages compiles the six-step factorization into a three-stage graph:
//
//	stage 1: w1  = L_{n1}^{N} src                      (pure transpose)
//	stage 2: w2  = L_{n2}^{N} D (I_{n1} ⊗ DFT_{n2}) w1 (row FFTs + twiddles)
//	stage 3: dst = L_{n1}^{N} (I_{n2} ⊗ DFT_{n1}) w2   (row FFTs)
//
// The graph is built once at plan time and cached; compute closures read
// the direction from p.curSign and the src/dst endpoints are patched per
// call. Endpoints may be nil when only describing the graph.
func (p *Plan) buildStages(dst, src []complex128) []stagegraph.Stage {
	return []stagegraph.Stage{
		p.transposeStage("reorder", p.w1, src, p.n2, p.n1, nil, false, false),
		p.transposeStage("n2-rows", p.w2, p.w1, p.n1, p.n2, p.p2, true, false),
		p.transposeStage("n1-rows", dst, p.w2, p.n2, p.n1, p.p1, false, true),
	}
}

// transposeStage compiles one stride-permutation pass over the rows×cols
// row-major matrix src into a Stage: load contiguous row groups, optionally
// apply rowPlan to every row (scaling row j by ω_N^{j·i} when twiddles is
// set, and by curScale when last is set and a normalized inverse is
// running), transpose the group in cache into the staging half, and store
// whole column blocks into the cols×rows matrix dst.
func (p *Plan) transposeStage(name string, dst, src []complex128, rows, cols int, rowPlan *fft1d.Plan, twiddles, last bool) stagegraph.Stage {
	rPer := largestDivisorAtMost(rows, maxI(p.bufs.Elems/cols, 1))
	return stagegraph.Stage{
		Name: name, Iters: rows / rPer, Units: rPer, UnitLen: cols,
		Src: stagegraph.Endpoint{C: src},
		Dst: stagegraph.Endpoint{C: dst},
		Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, iter, lo, hi int) {
			blk := rPer * cols
			rowsHalf := b.C[half][:blk]
			thalf := b.T[half][:blk]
			sign := p.curSign
			if rowPlan != nil && lo < hi {
				// One batched Stockham sweep across the worker's whole
				// contiguous row range, then the per-row twiddle pass.
				rowPlan.BatchArena(rowsHalf[lo*cols:hi*cols], hi-lo, sign, a)
			}
			if rowPlan != nil && twiddles {
				for r := lo; r < hi; r++ {
					twiddleRow(rowsHalf[r*cols:(r+1)*cols], iter*rPer+r, p.n, sign)
				}
			}
			if last && p.curScale != 0 && lo < hi {
				fft1d.Scale(rowsHalf[lo*cols:hi*cols], p.curScale)
			}
			// Transpose the worker's row range into the column-major
			// staging half through the register-tiled kernel.
			layout.TransposeRows(thalf, rowsHalf, rPer, cols, lo, hi)
		},
		// Store column c of iteration it as one contiguous rPer-element
		// block at dst[c·rows + it·rPer], read from the staging half.
		StoreFromStaging: true,
		StoreUnits:       cols, StoreLen: rPer,
		Rot: stagegraph.Rotation{Blocks: 1, BlockLen: rPer,
			Map: func(g, _ int) int {
				it, c := g/cols, g%cols
				return c*rows + it*rPer
			}},
	}
}

// twiddleRow scales row j by ω_N^{j·i} for i = 0..len-1 (conjugated for the
// inverse), using a multiplicative recurrence resynchronized from the exact
// table every 64 steps so no full-size twiddle array is needed.
func twiddleRow(row []complex128, j, n, sign int) {
	if j == 0 {
		return
	}
	ws := twiddle.Omega(n, j)
	if sign == fft1d.Inverse {
		ws = complex(real(ws), -imag(ws))
	}
	w := complex(1, 0)
	for i := 1; i < len(row); i++ {
		if i&63 == 0 {
			w = twiddle.Omega(n, (j*i)%n)
			if sign == fft1d.Inverse {
				w = complex(real(w), -imag(w))
			}
		} else {
			w *= ws
		}
		row[i] *= w
	}
}

func largestDivisorAtMost(n, cap int) int {
	if cap >= n {
		return n
	}
	for d := cap; d >= 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
