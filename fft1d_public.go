package repro

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// ErrClosed is returned by a transform on any plan handle after Close,
// whether the handle owns its plan or came from a SharedPlans pool.
var ErrClosed = errors.New("repro: plan closed")

// FFT1D is a reusable plan for one-dimensional transforms of any size
// n ≥ 1: the fft1d Stockham chain (a Bluestein stage for each prime factor
// above 8) run directly over the caller's arrays, with one n-element scratch drawn from
// a process-wide pool. No option shapes it; the result is bitwise
// fft1d.NewPlan(n).Transform at every size.
type FFT1D struct {
	p *fft1d.Plan
	// A handle from a SharedPlans pool releases its cache pin on Close.
	release func()
	closed  atomic.Bool
}

// NewFFT1D builds a 1D plan for size n.
func NewFFT1D(n int, opts ...Option) (*FFT1D, error) {
	if _, err := resolve(opts); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("repro: invalid 1D size %d", n)
	}
	return &FFT1D{p: fft1d.NewPlan(n)}, nil
}

// Forward computes the unnormalized forward DFT out of place.
func (f *FFT1D) Forward(dst, src []complex128) error { return f.execute(dst, src, false) }

// Inverse computes the normalized inverse DFT out of place.
func (f *FFT1D) Inverse(dst, src []complex128) error { return f.execute(dst, src, true) }

func (f *FFT1D) execute(dst, src []complex128, inverse bool) error {
	if f.closed.Load() {
		return ErrClosed
	}
	return f.p.Execute(dst, src, inverse, nil)
}

// Close marks the handle closed — later transforms return ErrClosed — and
// releases its SharedPlans pin, if any. Idempotent and safe to call
// concurrently with transforms: the plan is immutable data with no workers
// to stop, so a transform already running finishes normally.
func (f *FFT1D) Close() {
	if f.closed.CompareAndSwap(false, true) && f.release != nil {
		f.release()
	}
}

// Len returns the transform size.
func (f *FFT1D) Len() int { return f.p.N() }

// Observability returns the zero value: a 1D plan has no pipeline stages
// to account. The method exists so every plan kind can be held behind one
// interface.
func (f *FFT1D) Observability() Observability { return Observability{} }

// RealFFT1D transforms real rows of even length n to their Hermitian half
// spectra (n/2+1 complex values) and back, running as a pipelined stage
// graph with the real↔complex packing fused into the streaming loads and
// stores (8 B of traffic per real element). Batched entry points amortize
// the pipeline wake-up across many rows — the shape the serving layer's
// request coalescing feeds.
type RealFFT1D struct{ handle }

// NewRealFFT1D builds a real-input 1D plan; n must be even and ≥ 2.
func NewRealFFT1D(n int, opts ...Option) (*RealFFT1D, error) {
	f := new(RealFFT1D)
	if err := f.build(opts, true, n); err != nil {
		return nil, err
	}
	return f, nil
}

// Forward computes the unnormalized half spectrum X[0…n/2]; dst must have
// length SpectrumLen(), src length N().
func (f *RealFFT1D) Forward(dst []complex128, src []float64) error {
	return f.ForwardBatch(dst, src, 1)
}

// ForwardBatch transforms count contiguously packed real rows in one
// pipeline run.
func (f *RealFFT1D) ForwardBatch(dst []complex128, src []float64, count int) error {
	return f.run(func(p *core.Plan) error { return p.ForwardReal(dst, src, count) })
}

// Inverse computes the normalized real inverse (Inverse ∘ Forward is the
// identity). The imaginary parts of the self-conjugate bins src[0] and
// src[n/2] are forced to zero; src is not modified.
func (f *RealFFT1D) Inverse(dst []float64, src []complex128) error {
	return f.InverseBatch(dst, src, 1)
}

// InverseBatch reconstructs count contiguously packed real rows in one
// pipeline run.
func (f *RealFFT1D) InverseBatch(dst []float64, src []complex128, count int) error {
	return f.run(func(p *core.Plan) error { return p.InverseReal(dst, src, count) })
}

// N returns the real length.
func (f *RealFFT1D) N() int { return f.p.Len() }

// SpectrumLen returns n/2+1.
func (f *RealFFT1D) SpectrumLen() int { return f.p.SpectrumLen() }

// String provides a compact description for logs.
func (f *RealFFT1D) String() string { return fmt.Sprintf("RealFFT1D(%d)", f.p.Len()) }

// RealFFT2D transforms real n×m grids (m even) to their Hermitian half
// spectra (n×(m/2+1) complex values) and back — roughly half the memory
// traffic and twice the element rate of a same-shape complex transform.
type RealFFT2D struct{ handle }

// NewRealFFT2D builds a real-input 2D plan; m must be even.
func NewRealFFT2D(n, m int, opts ...Option) (*RealFFT2D, error) {
	f := new(RealFFT2D)
	if err := f.build(opts, true, n, m); err != nil {
		return nil, err
	}
	return f, nil
}

// Forward computes the unnormalized half spectrum; dst must have length
// SpectrumLen(), src length RealLen().
func (f *RealFFT2D) Forward(dst []complex128, src []float64) error {
	return f.run(func(p *core.Plan) error { return p.ForwardReal(dst, src, 1) })
}

// Inverse computes the normalized real inverse; src is not modified, and
// the self-conjugate bins have their imaginary parts forced to zero.
func (f *RealFFT2D) Inverse(dst []float64, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.InverseReal(dst, src, 1) })
}

// RealLen returns n·m.
func (f *RealFFT2D) RealLen() int { return f.p.Len() }

// SpectrumLen returns n·(m/2+1).
func (f *RealFFT2D) SpectrumLen() int { return f.p.SpectrumLen() }

// Dims returns (n, m).
func (f *RealFFT2D) Dims() (int, int) {
	d := f.p.Dims()
	return d[0], d[1]
}

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (f *RealFFT2D) DescribeGraph() string { return f.p.DescribeGraph() }

// String provides a compact description for logs.
func (f *RealFFT2D) String() string {
	n, m := f.Dims()
	return fmt.Sprintf("RealFFT2D(%d×%d)", n, m)
}

// RealFFT3D transforms real k×n×m grids to their Hermitian half spectra
// (k×n×(m/2+1) complex values) and back — the format spectral PDE solvers
// and convolutions over real fields consume, at roughly half the memory
// traffic of a padded complex transform.
type RealFFT3D struct{ handle }

// NewRealFFT3D builds a real-input 3D plan; m must be even.
func NewRealFFT3D(k, n, m int, opts ...Option) (*RealFFT3D, error) {
	f := new(RealFFT3D)
	if err := f.build(opts, true, k, n, m); err != nil {
		return nil, err
	}
	return f, nil
}

// Forward computes the unnormalized half spectrum; dst must have length
// SpectrumLen(), src length RealLen().
func (f *RealFFT3D) Forward(dst []complex128, src []float64) error {
	return f.run(func(p *core.Plan) error { return p.ForwardReal(dst, src, 1) })
}

// Inverse computes the normalized real inverse; src is not modified, and
// the self-conjugate bins have their imaginary parts forced to zero.
func (f *RealFFT3D) Inverse(dst []float64, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.InverseReal(dst, src, 1) })
}

// RealLen returns k·n·m.
func (f *RealFFT3D) RealLen() int { return f.p.Len() }

// SpectrumLen returns k·n·(m/2+1).
func (f *RealFFT3D) SpectrumLen() int { return f.p.SpectrumLen() }

// Dims returns (k, n, m).
func (f *RealFFT3D) Dims() (int, int, int) {
	d := f.p.Dims()
	return d[0], d[1], d[2]
}

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (f *RealFFT3D) DescribeGraph() string { return f.p.DescribeGraph() }

// String provides a compact description for logs.
func (f *RealFFT3D) String() string {
	k, n, m := f.Dims()
	return fmt.Sprintf("RealFFT3D(%d×%d×%d)", k, n, m)
}
