package repro

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fft1d"
	"repro/internal/rfft"
)

// ErrClosed is returned by a transform on an FFT1D handle after Close.
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
type RealFFT1D struct {
	p         *rfft.Plan
	release   func()
	closeOnce sync.Once
}

// NewRealFFT1D builds a real-input 1D plan; n must be even and ≥ 2.
func NewRealFFT1D(n int, opts ...Option) (*RealFFT1D, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	p, err := rfft.NewPlan(cfg, n)
	if err != nil {
		return nil, err
	}
	return &RealFFT1D{p: p}, nil
}

// Forward computes the unnormalized half spectrum X[0…n/2]; dst must have
// length SpectrumLen(), src length N().
func (f *RealFFT1D) Forward(dst []complex128, src []float64) error {
	return f.p.Forward(dst, src)
}

// ForwardBatch transforms count contiguously packed real rows in one
// pipeline run.
func (f *RealFFT1D) ForwardBatch(dst []complex128, src []float64, count int) error {
	return f.p.ForwardBatch(dst, src, count)
}

// Inverse computes the normalized real inverse (Inverse ∘ Forward is the
// identity). The imaginary parts of the self-conjugate bins src[0] and
// src[n/2] are forced to zero; src is not modified.
func (f *RealFFT1D) Inverse(dst []float64, src []complex128) error {
	return f.p.Inverse(dst, src)
}

// InverseBatch reconstructs count contiguously packed real rows in one
// pipeline run.
func (f *RealFFT1D) InverseBatch(dst []float64, src []complex128, count int) error {
	return f.p.InverseBatch(dst, src, count)
}

// N returns the real length.
func (f *RealFFT1D) N() int { return f.p.RealLen() }

// SpectrumLen returns n/2+1.
func (f *RealFFT1D) SpectrumLen() int { return f.p.SpectrumLen() }

// Close releases the plan's persistent pipeline workers; optional and
// idempotent (see FFT3D.Close).
func (f *RealFFT1D) Close() {
	f.closeOnce.Do(func() {
		if f.release != nil {
			f.release()
			return
		}
		f.p.Close()
	})
}

// Observability returns the plan's cumulative bandwidth-accounting
// snapshot, merged over the forward and inverse pipelines; see
// FFT3D.Observability.
func (f *RealFFT1D) Observability() Observability { return f.p.Observability() }

// Stats returns executor statistics for the most recent transform.
func (f *RealFFT1D) Stats() Stats { return f.p.Stats() }

// String provides a compact description for logs.
func (f *RealFFT1D) String() string { return fmt.Sprintf("RealFFT1D(%d)", f.p.RealLen()) }

// RealFFT2D transforms real n×m grids (m even) to their Hermitian half
// spectra (n×(m/2+1) complex values) and back — roughly half the memory
// traffic and twice the element rate of a same-shape complex transform.
type RealFFT2D struct {
	p         *rfft.Plan
	release   func()
	closeOnce sync.Once
}

// NewRealFFT2D builds a real-input 2D plan; m must be even.
func NewRealFFT2D(n, m int, opts ...Option) (*RealFFT2D, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	p, err := rfft.NewPlan(cfg, n, m)
	if err != nil {
		return nil, err
	}
	return &RealFFT2D{p: p}, nil
}

// Forward computes the unnormalized half spectrum; dst must have length
// SpectrumLen(), src length RealLen().
func (f *RealFFT2D) Forward(dst []complex128, src []float64) error {
	return f.p.Forward(dst, src)
}

// Inverse computes the normalized real inverse; src is not modified, and
// the self-conjugate bins have their imaginary parts forced to zero.
func (f *RealFFT2D) Inverse(dst []float64, src []complex128) error {
	return f.p.Inverse(dst, src)
}

// RealLen returns n·m.
func (f *RealFFT2D) RealLen() int { return f.p.RealLen() }

// SpectrumLen returns n·(m/2+1).
func (f *RealFFT2D) SpectrumLen() int { return f.p.SpectrumLen() }

// Dims returns (n, m).
func (f *RealFFT2D) Dims() (int, int) {
	d := f.p.Dims()
	return d[0], d[1]
}

// Close releases the plan's persistent pipeline workers; optional and
// idempotent (see FFT3D.Close).
func (f *RealFFT2D) Close() {
	f.closeOnce.Do(func() {
		if f.release != nil {
			f.release()
			return
		}
		f.p.Close()
	})
}

// Observability returns the plan's cumulative telemetry snapshot, merged
// over the forward and inverse pipelines.
func (f *RealFFT2D) Observability() Observability { return f.p.Observability() }

// Stats returns executor statistics for the most recent transform.
func (f *RealFFT2D) Stats() Stats { return f.p.Stats() }

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
type RealFFT3D struct {
	p         *rfft.Plan
	release   func()
	closeOnce sync.Once
}

// NewRealFFT3D builds a real-input 3D plan; m must be even.
func NewRealFFT3D(k, n, m int, opts ...Option) (*RealFFT3D, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	p, err := rfft.NewPlan(cfg, k, n, m)
	if err != nil {
		return nil, err
	}
	return &RealFFT3D{p: p}, nil
}

// Forward computes the unnormalized half spectrum; dst must have length
// SpectrumLen(), src length RealLen().
func (f *RealFFT3D) Forward(dst []complex128, src []float64) error {
	return f.p.Forward(dst, src)
}

// Inverse computes the normalized real inverse; src is not modified, and
// the self-conjugate bins have their imaginary parts forced to zero.
func (f *RealFFT3D) Inverse(dst []float64, src []complex128) error {
	return f.p.Inverse(dst, src)
}

// RealLen returns k·n·m.
func (f *RealFFT3D) RealLen() int { return f.p.RealLen() }

// SpectrumLen returns k·n·(m/2+1).
func (f *RealFFT3D) SpectrumLen() int { return f.p.SpectrumLen() }

// Dims returns (k, n, m).
func (f *RealFFT3D) Dims() (int, int, int) {
	d := f.p.Dims()
	return d[0], d[1], d[2]
}

// Close releases the plan's persistent pipeline workers; optional and
// idempotent (see FFT3D.Close).
func (f *RealFFT3D) Close() {
	f.closeOnce.Do(func() {
		if f.release != nil {
			f.release()
			return
		}
		f.p.Close()
	})
}

// Observability returns the plan's cumulative telemetry snapshot, merged
// over the forward and inverse pipelines.
func (f *RealFFT3D) Observability() Observability { return f.p.Observability() }

// Stats returns executor statistics for the most recent transform.
func (f *RealFFT3D) Stats() Stats { return f.p.Stats() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (f *RealFFT3D) DescribeGraph() string { return f.p.DescribeGraph() }

// String provides a compact description for logs.
func (f *RealFFT3D) String() string {
	k, n, m := f.Dims()
	return fmt.Sprintf("RealFFT3D(%d×%d×%d)", k, n, m)
}
