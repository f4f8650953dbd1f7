// Package fft2d implements two-dimensional FFTs over n×m row-major
// complex128 matrices with three interchangeable strategies:
//
//   - Reference: straightforward row FFTs followed by column FFTs via the
//     lane driver; simple and used as the correctness oracle.
//
//   - Pencil: the non-overlapped pencil-pencil decomposition with strided
//     column pencils — the memory behaviour of MKL/FFTW-style libraries the
//     paper compares against (§II-D).
//
//   - DoubleBuf: the paper's contribution (§III): every stage becomes
//     load-contiguous → compute-contiguous-pencils → store-blocked-transpose,
//     executed by the software-pipelined double-buffer engine with dedicated
//     data workers (soft DMA engines) and compute workers. After the two
//     stages the matrix is back in its original row-major layout:
//
//     DFT_{n×m} = (L_n^{mn/μ} ⊗ I_μ)(I_{m/μ} ⊗ DFT_n ⊗ I_μ)   Stage 2
//     (L_{m/μ}^{mn/μ} ⊗ I_μ)(I_n ⊗ DFT_m)          Stage 1
package fft2d

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fft1d"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// Strategy selects the execution plan.
type Strategy int

const (
	// Reference is the simple two-stage row-column algorithm.
	Reference Strategy = iota
	// Pencil is the non-overlapped baseline with strided column pencils.
	Pencil
	// DoubleBuf is the paper's pipelined double-buffering scheme.
	DoubleBuf
)

func (s Strategy) String() string {
	switch s {
	case Reference:
		return "reference"
	case Pencil:
		return "pencil"
	case DoubleBuf:
		return "doublebuf"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configure a plan. Zero values select sensible defaults.
type Options struct {
	Strategy Strategy
	// Mu is the cacheline block size in complex elements. The default is
	// machine.PreferredMu(m) — the largest of 8, 4, 2 dividing m — since
	// μ=8 spans two full 64-byte lines and measures ~0.95 of STREAM peak
	// on the blocked transpose against ~0.65 for μ=4.
	Mu int
	// BufferElems is the per-half block size b in complex elements. The
	// default is machine.PreferredBufferElems() — sized so both halves
	// stay resident in the host's L2 alongside the streamed source and
	// destination. The engine uses two halves of this size. The
	// effective value is rounded down so every stage has an integral
	// number of whole blocks.
	BufferElems int
	// DataWorkers (p_d) and ComputeWorkers (p_c) for DoubleBuf; Workers
	// is the pool size for Pencil. Defaults: 1/1 and 1.
	DataWorkers    int
	ComputeWorkers int
	Workers        int
	// Radix caps the Stockham stage radix of the power-of-two 1D sub-plans
	// (0 = default 16, the fused two-stage codelet tier; 2, 4 and 8 select
	// the higher-pass-count mixes for tuning/ablation).
	Radix int
	// Unfused disables cross-stage pipeline fusion: each stage drains the
	// pipeline before the next begins, as if run by a separate engine
	// invocation (the A/B baseline; fusion is on by default).
	Unfused bool
	// DisableStoreFold turns off the fused store epilogue: the trailing
	// trivial-twiddle radix-4 butterfly runs as a normal compute sweep and
	// the scatter stores unmodified blocks (the A/B baseline for the fold;
	// folding is on by default whenever the stage chain allows it).
	DisableStoreFold bool
	// StorePolicy selects cached vs streaming (non-temporal) block stores
	// for the DoubleBuf stages. The default StoreAuto picks streaming
	// stores when the transform's per-stage destination footprint exceeds
	// half the host LLC; ReviseStorePolicy can re-decide from telemetry.
	StorePolicy stagegraph.StorePolicy
	// Tracer records pipeline events for schedule verification.
	Tracer *trace.Recorder
}

// Plan is a reusable 2D FFT execution plan for a fixed n×m size.
type Plan struct {
	n, m int
	opts Options

	rowPlan *fft1d.Plan // DFT_m
	colPlan *fft1d.Plan // DFT_n

	// run owns the DoubleBuf state — the compiled two-stage graph, the
	// double buffer and the persistent executor — and serialises
	// transforms on its lock (the plan stays safe for concurrent use;
	// independent plans run fully in parallel). Nil for the baselines.
	run    *stagegraph.Runner
	closed atomic.Bool
}

// NewPlan validates the size and options and precomputes 1D sub-plans.
func NewPlan(n, m int, opts Options) (*Plan, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("fft2d: invalid size %dx%d", n, m)
	}
	if err := fft1d.CheckRadix("fft2d", opts.Radix); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	p := &Plan{n: n, m: m, opts: opts,
		rowPlan: fft1d.NewPlanRadix(m, opts.Radix), colPlan: fft1d.NewPlanRadix(n, opts.Radix)}
	if opts.Strategy != DoubleBuf {
		return p, nil
	}
	// Stage 1 reads src and leaves the blocked-transposed intermediate in
	// the work array; stage 2 reads it and produces dst in the original
	// row-major layout.
	g, err := stagegraph.Pencils{
		Pkg: "fft2d", Dims: []int{n, m}, Plans: []*fft1d.Plan{p.colPlan, p.rowPlan},
		Mu: opts.Mu, BufferElems: opts.BufferElems,
		DisableFold: opts.DisableStoreFold, StorePolicy: opts.StorePolicy,
		Mid: []stagegraph.Array{{C: make([]complex128, n*m)}},
	}.Build()
	if err != nil {
		return nil, err
	}
	p.run, err = stagegraph.NewRunner(stagegraph.RunnerConfig{
		Pkg: "fft2d", Labels: []string{fmt.Sprintf("fft2d/%dx%d", n, m)},
		DataWorkers: opts.DataWorkers, ComputeWorkers: opts.ComputeWorkers,
		Unfused: opts.Unfused, Tracer: opts.Tracer,
	}, g)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Close releases the plan's persistent executor workers. Idempotent and
// safe to call concurrently — with other Close calls and with a Transform
// in flight (Close waits for the transform to finish; later Transforms
// return an error). Plans dropped without Close are cleaned up by a
// finalizer.
func (p *Plan) Close() {
	p.closed.Store(true)
	p.run.Close()
}

// N and M return the plan's dimensions (n rows × m columns).
func (p *Plan) N() int { return p.n }

// M returns the row length.
func (p *Plan) M() int { return p.m }

// Stage1Iters returns the number of pipeline blocks in the first DoubleBuf
// stage (the paper's iter = mn/b); 0 for other strategies.
func (p *Plan) Stage1Iters() int {
	if p.run == nil {
		return 0
	}
	return p.run.Iters(0)[0]
}

// Transform computes dst = DFT_{n×m}(src) out of place; dst and src must
// each have length n·m and must not overlap. The transform is unnormalized;
// Inverse is the normalized round-trip partner of a forward Transform.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	if len(dst) != p.n*p.m || len(src) != p.n*p.m {
		return fmt.Errorf("fft2d: Transform lengths dst=%d src=%d, want %d",
			len(dst), len(src), p.n*p.m)
	}
	return p.transform(dst, src, sign, 0)
}

func (p *Plan) transform(dst, src []complex128, sign int, scale float64) error {
	if p.closed.Load() {
		return fmt.Errorf("fft2d: plan closed")
	}
	switch p.opts.Strategy {
	case Reference:
		p.reference(dst, src, sign)
	case Pencil:
		p.pencil(dst, src, sign)
	case DoubleBuf:
		return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src},
			Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
	default:
		return fmt.Errorf("fft2d: unknown strategy %v", p.opts.Strategy)
	}
	if scale != 0 {
		fft1d.Scale(dst, scale)
	}
	return nil
}

// Inverse computes the normalized inverse transform out of place:
// Transform(dst, src, fft1d.Inverse) followed by fft1d.Scale(dst, 1/(n·m)),
// bitwise. DoubleBuf plans apply the scale in the last stage's compute leg
// whenever that is bit-identical, so dst is not swept a third time.
func (p *Plan) Inverse(dst, src []complex128) error {
	if len(dst) != p.n*p.m || len(src) != p.n*p.m {
		return p.Transform(dst, src, fft1d.Inverse) // the length error
	}
	return p.transform(dst, src, fft1d.Inverse, 1/float64(p.n*p.m))
}

// Stats returns the whole-transform executor stats of the most recent
// DoubleBuf transform (zero value before the first, or for other
// strategies).
func (p *Plan) Stats() stagegraph.Stats { return p.run.Stats() }

// Obs returns the plan's telemetry collector (nil for non-DoubleBuf
// strategies). The collector is live: snapshots taken from it reflect every
// transform the plan has run.
func (p *Plan) Obs() *obs.Collector { return p.run.Obs(0) }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed.
func (p *Plan) Observability() obs.Snapshot { return p.run.Observability() }

// Mu returns the effective cacheline block size a DoubleBuf plan runs with
// (after defaulting); the option value for the baselines.
func (p *Plan) Mu() int {
	if p.run == nil {
		return p.opts.Mu
	}
	return p.run.Mu()
}

// NonTemporalStages reports how many of the plan's stages currently route
// stores through the streaming tier (0 for non-DoubleBuf strategies).
func (p *Plan) NonTemporalStages() int { return p.run.NonTemporalStages() }

// ReviseStorePolicy re-decides the per-stage store tier of a StoreAuto
// DoubleBuf plan from the telemetry collected so far (see
// stagegraph.Runner.ReviseStorePolicy) and returns the number of stages
// whose tier changed. Call it between transforms, never concurrently with
// one.
func (p *Plan) ReviseStorePolicy() int { return p.run.ReviseStorePolicy() }

// DescribeGraph renders the compiled stage graph the plan executes, with
// each stage's current store mode; empty for non-DoubleBuf strategies.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }

// InPlace computes x = DFT_{n×m}(x) using the plan's work array.
func (p *Plan) InPlace(x []complex128, sign int) error {
	if len(x) != p.n*p.m {
		return fmt.Errorf("fft2d: InPlace length %d, want %d", len(x), p.n*p.m)
	}
	tmp := make([]complex128, p.n*p.m)
	if err := p.Transform(tmp, x, sign); err != nil {
		return err
	}
	copy(x, tmp)
	return nil
}

// reference: rows then columns, serial.
func (p *Plan) reference(dst, src []complex128, sign int) {
	n, m := p.n, p.m
	p.rowPlan.BatchInto(dst, src, n, sign)
	p.colPlan.InPlaceLanes(dst, m, sign)
}

// pencil: the non-overlapped baseline. Stage 1 transforms rows in place;
// stage 2 gathers each column at stride m, transforms it, and scatters it
// back — the cache-hostile access pattern of a pencil-pencil library.
func (p *Plan) pencil(dst, src []complex128, sign int) {
	n, m := p.n, p.m
	copy(dst, src)
	parallelFor(p.opts.Workers, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			p.rowPlan.InPlace(dst[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(p.opts.Workers, m, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			p.colPlan.Strided(dst, c, m, sign)
		}
	})
}

// parallelFor divides [0, total) among workers goroutines.
func parallelFor(workers, total int, f func(lo, hi int)) {
	if workers <= 1 || total <= 1 {
		f(0, total)
		return
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			lo, hi := stagegraph.Partition(total, w, workers)
			f(lo, hi)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
