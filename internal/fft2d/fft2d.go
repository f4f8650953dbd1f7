// Package fft2d implements two-dimensional FFTs over n×m row-major
// complex128 matrices with three interchangeable strategies (core.Strategy):
//
//   - Reference: straightforward row FFTs followed by column FFTs via the
//     lane driver; simple and used as the correctness oracle.
//
//   - Pencil (and Slab, which 2D does not distinguish from it): the
//     non-overlapped pencil-pencil decomposition with strided column pencils
//     — the memory behaviour of MKL/FFTW-style libraries the paper compares
//     against (§II-D).
//
//   - DoubleBuf, the default: the paper's contribution (§III): every stage
//     becomes load-contiguous → compute-contiguous-pencils →
//     store-blocked-transpose, executed by the software-pipelined
//     double-buffer engine with dedicated data workers (soft DMA engines)
//     and compute workers. After the two stages the matrix is back in its
//     original row-major layout:
//
//     DFT_{n×m} = (L_n^{mn/μ} ⊗ I_μ)(I_{m/μ} ⊗ DFT_n ⊗ I_μ)   Stage 2
//     (L_{m/μ}^{mn/μ} ⊗ I_μ)(I_n ⊗ DFT_m)          Stage 1
package fft2d

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/obs"
	"repro/internal/stagegraph"
)

// Plan is a reusable 2D FFT execution plan for a fixed n×m size.
type Plan struct {
	n, m int
	cfg  core.Config

	rowPlan *fft1d.Plan // DFT_m
	colPlan *fft1d.Plan // DFT_n

	// run owns the DoubleBuf state — the compiled two-stage graph, the
	// double buffer and the persistent executor — and serialises
	// transforms on its lock (the plan stays safe for concurrent use;
	// independent plans run fully in parallel). Nil for the baselines.
	run    *stagegraph.Runner
	closed atomic.Bool
}

// NewPlan validates the size and configuration and precomputes 1D sub-plans.
func NewPlan(n, m int, cfg core.Config) (*Plan, error) {
	d, err := cfg.Pencils("fft2d", n, m)
	if err != nil {
		return nil, err
	}
	p := &Plan{n: n, m: m, cfg: cfg, colPlan: d.Plans[0], rowPlan: d.Plans[1]}
	if cfg.Strategy != core.DoubleBuf {
		return p, nil
	}
	// Stage 1 reads src and leaves the blocked-transposed intermediate in
	// the work array; stage 2 reads it and produces dst in the original
	// row-major layout.
	d.Mid = []stagegraph.Array{{C: make([]complex128, n*m)}}
	g, err := d.Build()
	if err != nil {
		return nil, err
	}
	p.run, err = cfg.NewRunner("fft2d", []string{fmt.Sprintf("fft2d/%dx%d", n, m)}, g)
	if err != nil {
		return nil, err
	}
	if mo := cfg.Model(); mo != nil {
		p.run.Obs(0).SetPredicted(mo.DoubleBuf2D(n, m).StagePredictions())
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
	switch p.cfg.Strategy {
	case core.Reference:
		p.reference(dst, src, sign)
	case core.Pencil, core.Slab:
		p.pencil(dst, src, sign)
	default:
		return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src},
			Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
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

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed.
func (p *Plan) Observability() obs.Snapshot { return p.run.Observability() }

// Mu returns the effective cacheline block size a DoubleBuf plan runs with
// (after defaulting); the option value for the baselines.
func (p *Plan) Mu() int {
	if p.run == nil {
		return p.cfg.Mu
	}
	return p.run.Mu()
}

// NonTemporalStages reports how many of the plan's stages currently route
// stores through the streaming tier (0 for non-DoubleBuf strategies).
func (p *Plan) NonTemporalStages() int { return p.run.NonTemporalStages() }

// DescribeGraph renders the compiled stage graph the plan executes, with
// each stage's current store mode; empty for non-DoubleBuf strategies.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }

// InPlace computes x = DFT_{n×m}(x) through a temporary of the same size.
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
	parallelFor(p.cfg.Workers, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			p.rowPlan.InPlace(dst[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(p.cfg.Workers, m, func(lo, hi int) {
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
