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
//
// The factorization is for arrays that do not fit cache: while src and dst
// (32·n bytes) fit the per-core L2 together, and for primes, a plan runs the
// in-cache fft1d transform directly (Options.MinN).
package fft1dlarge

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/machine"
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
	// MinN is the size below which the plan runs the in-cache 1D FFT
	// directly. The default comes from the machine model: direct while src
	// and dst (32·n bytes) both fit machine.HostL2Bytes() — n ≤ 2¹⁶ on a
	// 2 MiB L2 (EXPERIMENTS.md "Direct vs six-step"). Tests set it to force
	// the graph at small n.
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
		o.MinN = defaultMinN(machine.HostL2Bytes())
	}
	return o
}

// defaultMinN is the smallest size whose src and dst (16 bytes per element
// each) no longer fit an L2 of l2Bytes together: below it every Stockham
// pass runs cache to cache and the six-step graph's three extra passes over
// the array buy nothing.
func defaultMinN(l2Bytes int) int { return l2Bytes/32 + 1 }

// Plan is a reusable large-1D FFT plan.
type Plan struct {
	n      int
	n1, n2 int         // n = n1·n2
	direct *fft1d.Plan // small-n fallback

	// run owns the compiled three-stage graph with its full-size
	// intermediates, the double buffer and the persistent executor; nil for
	// the direct fallback.
	run  *stagegraph.Runner
	refs atomic.Int32
}

// NewPlan builds a large-1D plan for size n ≥ 1.
func NewPlan(n int, opts Options) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft1dlarge: invalid size %d", n)
	}
	opts = opts.withDefaults()
	if err := fft1d.CheckRadix("fft1dlarge", opts.Radix); err != nil {
		return nil, err
	}
	p := &Plan{n: n}
	p.refs.Store(1)
	n1, n2 := split(n)
	if n < opts.MinN || n2 == 1 {
		p.direct = fft1d.NewPlanRadix(n, opts.Radix)
		return p, nil
	}
	p.n1, p.n2 = n1, n2
	// Each half must hold at least one row of the wider stage.
	b := min(max(opts.BufferElems, n1), n)
	// The six-step factorization as three stride-permutation passes:
	//
	//	stage 1: w1  = L_{n1}^{N} src                      (pure transpose)
	//	stage 2: w2  = L_{n2}^{N} D (I_{n1} ⊗ DFT_{n2}) w1 (row FFTs + twiddles)
	//	stage 3: dst = L_{n1}^{N} (I_{n2} ⊗ DFT_{n1}) w2   (row FFTs)
	g := stagegraph.Transposes(b,
		stagegraph.Transpose{Name: "reorder", Rows: n2, Cols: n1},
		stagegraph.Transpose{Name: "n2-rows", Rows: n1, Cols: n2, Plan: fft1d.NewPlanRadix(n2, opts.Radix),
			Twiddle: func(row []complex128, j, sign int) { twiddleRow(row, j, n, sign) }},
		stagegraph.Transpose{Name: "n1-rows", Rows: n2, Cols: n1, Plan: fft1d.NewPlanRadix(n1, opts.Radix)},
	)
	var err error
	p.run, err = stagegraph.NewRunner(stagegraph.RunnerConfig{
		Pkg: "fft1dlarge", Labels: []string{fmt.Sprintf("fft1dlarge/%d", n)},
		DataWorkers: opts.DataWorkers, ComputeWorkers: opts.ComputeWorkers,
		Unfused: opts.Unfused, Tracer: opts.Tracer,
	}, g)
	if err != nil {
		return nil, err
	}
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
// dropped without Close are cleaned up by a finalizer, regardless of the
// reference count.
func (p *Plan) Close() {
	if p.refs.Add(-1) > 0 {
		return
	}
	p.run.Close()
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
	return p.transform(dst, src, sign, 0, nil)
}

// Inverse computes the normalized inverse out of place: Transform(dst, src,
// fft1d.Inverse) followed by fft1d.Scale(dst, 1/n), bitwise, with the scale
// applied to the last stage's rows in cache instead of in a pass over dst.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.Execute(dst, src, true, nil)
}

// Execute is Transform, or Inverse when inverse is set, for a caller that
// owns an arena: the direct path draws its ping-pong scratch from ar instead
// of the process-wide pool (nil selects the pool). The six-step graph has its
// own buffers and ignores ar. Same bits as Transform / Inverse either way.
func (p *Plan) Execute(dst, src []complex128, inverse bool, ar *kernels.Arena) error {
	if inverse {
		return p.transform(dst, src, fft1d.Inverse, 1/float64(p.n), ar)
	}
	return p.transform(dst, src, fft1d.Forward, 0, ar)
}

func (p *Plan) transform(dst, src []complex128, sign int, scale float64, ar *kernels.Arena) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("fft1dlarge: lengths dst=%d src=%d, want %d", len(dst), len(src), p.n)
	}
	if p.direct != nil {
		if ar != nil {
			p.direct.TransformArena(dst, src, sign, ar)
		} else {
			p.direct.Transform(dst, src, sign)
		}
		if scale != 0 {
			fft1d.Scale(dst, scale)
		}
		return nil
	}
	return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src},
		Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
}

// Stats returns the whole-transform executor stats of the most recent
// Transform (zero value before the first, or for the direct fallback).
func (p *Plan) Stats() stagegraph.Stats { return p.run.Stats() }

// Obs returns the plan's telemetry collector (nil for the direct fallback).
// The collector is live: snapshots taken from it reflect every transform
// the plan has run.
func (p *Plan) Obs() *obs.Collector { return p.run.Obs(0) }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed (zero value for the direct fallback).
func (p *Plan) Observability() obs.Snapshot { return p.run.Observability() }

// DescribeGraph renders the compiled stage graph the plan executes; empty
// for the direct fallback.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }

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
