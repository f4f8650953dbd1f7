// Package rfft implements real-input (r2c) and real-output (c2r) FFTs in
// one, two and three dimensions as compiled stage graphs on the same
// pipelined double-buffer executor as the complex transforms — real
// transforms are first-class citizens of the bandwidth-efficient stack, not
// wrappers around it.
//
// # The packed-Hermitian pipeline
//
// An m = 2l real row is pair-packed into l complex lanes during the load
// (stagegraph's fused real endpoint: 8 B of traffic per real element), sent
// through a half-length FFT_l, and Hermitian-untangled into the real-input
// spectrum X[0…l]. Because X[0] and X[l] are purely real, the untangled row
// is re-packed into the same l lanes — lane 0 holds complex(X[0], X[l]) —
// so rows keep their μ-divisible length through every later column/pencil
// stage of the 2D/3D graphs. The DFT is linear, so the later stages
// transform the packed lane-0 column exactly as they would have transformed
// the two real columns; a serial O(n) (2D) or O(k·n) (3D) post-pass
// disentangles the packed DC column/plane into the DC and Nyquist entries
// of the natural half-spectrum output. Inverses run the mirror pipeline: an
// entangle stage re-packs the natural half-spectrum (forcing the
// self-conjugate bins real), the pencil stages run conjugated with their
// 1/n scales folded in, and the last stage retangles and stores real rows
// through the fused unpack.
//
// Spectrum layout: a transform of real shape …×n×m produces …×n×(m/2+1)
// complex coefficients, row-major (the "natural" half-spectrum, Hermitian
// in the remaining axes). Forward transforms are unnormalized DFTs;
// inverses are fully normalized, so Inverse ∘ Forward is the identity.
//
// Every plan owns a persistent executor, compiled forward and inverse
// schedules, and per-direction telemetry collectors registered in
// obs.Default ("rfft2d/64x128" and "rfft2d/64x128/inv", …); steady-state
// transforms perform zero heap allocations.
package rfft

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/twiddle"
)

// halfTwiddles returns w[k] = ω_{2l}^k for 0 ≤ k ≤ l/2, the table the
// untangle/retangle kernels consume.
func halfTwiddles(l int) []complex128 {
	w := make([]complex128, l/2+1)
	for k := range w {
		w[k] = twiddle.Omega(2*l, k)
	}
	return w
}

// engine is what the 1D/2D/3D plans share: the runner holding the forward
// (graph 0) and inverse (graph 1) stage graphs — different stage sets, so
// each accounts into its own telemetry collector — on one double buffer and
// one persistent worker team.
type engine struct {
	run *stagegraph.Runner
}

const (
	fwdGraph = 0
	invGraph = 1
)

// build validates the configuration, derives both graphs of the real
// transform with complex lane extents dims (the last is l = m/2) from one
// descriptor, and starts the runner. A real plan always runs the pipeline:
// of the configuration it reads the block sizes, the worker counts, the
// tracer and the roofline. kind names the plan in errors,
// label its collectors (label and label+"/inv"); selfConj marks the spectrum
// rows whose DC and Nyquist bins the entangle stage forces real. Two scratch
// arrays of the packed grid's size carry both chains, stage by stage in
// turn: work1 holds the transposed blocks after the forward rows / inverse
// entangle stage, work2 what the next stage stores, and so on.
func (e *engine) build(kind, label string, cfg core.Config, m int, dims []int, selfConj func(g int) bool) error {
	if m < 2 || m%2 != 0 {
		return fmt.Errorf("rfft: %s requires an even last dimension ≥ 2, got %d", kind, m)
	}
	d, err := cfg.Pencils("rfft", dims...)
	if err != nil {
		return err
	}
	l := m / 2
	w := halfTwiddles(l)
	elems := 1
	for _, n := range dims {
		elems *= n
	}
	var mid []stagegraph.Array // D of them, alternating between two arrays
	if D := len(dims); D > 1 {
		work := [2][]complex128{make([]complex128, elems), make([]complex128, elems)}
		for i := 0; i < D; i++ {
			mid = append(mid, stagegraph.Array{C: work[i%2]})
		}
	}
	d.Mid = mid[:max(len(dims)-1, 0)]
	d.Real = &stagegraph.RealEnd{
		Pitch:    l + 1,
		Untangle: func(x []complex128, rows int) { kernels.UntanglePackRows(x, rows, l, w) },
	}
	fwd, err := d.Build()
	if err != nil {
		return err
	}
	d.Mid = mid
	d.Real = &stagegraph.RealEnd{
		Inverse: true, Pitch: l + 1,
		Entangle: func(t, c []complex128, rows, row0 int) {
			kernels.EntangleRows(t, c, rows, l, row0, selfConj)
		},
		Retangle: func(x []complex128, rows int) { kernels.RetangleRows(x, rows, l, w, 1/float64(l)) },
	}
	inv, err := d.Build()
	if err != nil {
		return err
	}
	e.run, err = cfg.NewRunner("rfft", []string{label, label + "/inv"}, fwd, inv)
	return err
}

// forward runs the r2c graph over count rows (batch plans) or the whole
// grid.
func (e *engine) forward(dst []complex128, src []float64, count int) error {
	return e.run.Run(fwdGraph, stagegraph.Call{
		In: stagegraph.Endpoint{R: src}, Out: stagegraph.Endpoint{C: dst}, Count: count})
}

// inverse runs the c2r graph.
func (e *engine) inverse(dst []float64, src []complex128, count int) error {
	return e.run.Run(invGraph, stagegraph.Call{
		In: stagegraph.Endpoint{C: src}, Out: stagegraph.Endpoint{R: dst}, Count: count})
}

// Close releases the plan's persistent workers. Idempotent; plans dropped
// without Close are cleaned up by a finalizer.
func (e *engine) Close() { e.run.Close() }

// Stats returns the most recent run's whole-transform executor stats.
func (e *engine) Stats() stagegraph.Stats { return e.run.Stats() }

// ObsForward returns the forward-direction telemetry collector.
func (e *engine) ObsForward() *obs.Collector { return e.run.Obs(fwdGraph) }

// ObsInverse returns the inverse-direction telemetry collector.
func (e *engine) ObsInverse() *obs.Collector { return e.run.Obs(invGraph) }

// Observability returns the merged forward+inverse telemetry snapshot.
func (e *engine) Observability() obs.Snapshot { return e.run.Observability() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (e *engine) DescribeGraph() string { return e.run.DescribeGraph() }

// Plan1D is a reusable, batched r2c/c2r plan for real length n = 2l. A
// batch of count rows runs as a single-iteration stage graph — the whole
// batch is one pipeline block — so coalesced serving batches amortize the
// worker wake-up across every row (the compiled schedule only pins the
// iteration count, so the batch size may vary call to call).
type Plan1D struct {
	n, l, mc int
	engine
}

// NewPlan1D builds a real-input FFT plan for even length n ≥ 2.
func NewPlan1D(n int, cfg core.Config) (*Plan1D, error) {
	l := n / 2
	p := &Plan1D{n: n, l: l, mc: l + 1}
	// Every 1D row is self-conjugate: X[0] and X[n/2] are forced real
	// (dirty imaginary parts are discarded). Forward rows land at
	// dst[g·(l+1)], leaving the per-row Nyquist hole the post-pass fills.
	err := p.build("Plan1D", fmt.Sprintf("rfft1d/%d", n), cfg, n, []int{l},
		func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// N returns the real length.
func (p *Plan1D) N() int { return p.n }

// SpectrumLen returns n/2 + 1, the number of independent Hermitian
// coefficients per row.
func (p *Plan1D) SpectrumLen() int { return p.mc }

// Forward computes the unnormalized half spectrum X[0…n/2] of one real
// row. len(src) must be n, len(dst) n/2+1.
func (p *Plan1D) Forward(dst []complex128, src []float64) error {
	return p.ForwardBatch(dst, src, 1)
}

// ForwardBatch transforms count independent real rows packed contiguously:
// src holds count·n reals, dst receives count·(n/2+1) coefficients.
func (p *Plan1D) ForwardBatch(dst []complex128, src []float64, count int) error {
	if count < 1 {
		return fmt.Errorf("rfft: ForwardBatch count=%d", count)
	}
	if len(src) != count*p.n || len(dst) != count*p.mc {
		return fmt.Errorf("rfft: ForwardBatch lengths src=%d dst=%d, want %d/%d",
			len(src), len(dst), count*p.n, count*p.mc)
	}
	if err := p.forward(dst, src, count); err != nil {
		return err
	}
	// Unpack each row's packed DC lane into the real DC and Nyquist bins.
	for g := 0; g < count; g++ {
		p0 := dst[g*p.mc]
		dst[g*p.mc] = complex(real(p0), 0)
		dst[g*p.mc+p.l] = complex(imag(p0), 0)
	}
	return nil
}

// Inverse reconstructs one real row from its half-spectrum; the transform
// is fully normalized, so Inverse ∘ Forward is the identity. The imaginary
// parts of src[0] and src[n/2] are forced to zero — those bins are
// self-conjugate for real data, and dirt in them would otherwise leak a
// complex component into the output. src is not modified.
func (p *Plan1D) Inverse(dst []float64, src []complex128) error {
	return p.InverseBatch(dst, src, 1)
}

// InverseBatch reconstructs count real rows from contiguously packed
// half-spectra: src holds count·(n/2+1) coefficients, dst receives count·n
// reals.
func (p *Plan1D) InverseBatch(dst []float64, src []complex128, count int) error {
	if count < 1 {
		return fmt.Errorf("rfft: InverseBatch count=%d", count)
	}
	if len(src) != count*p.mc || len(dst) != count*p.n {
		return fmt.Errorf("rfft: InverseBatch lengths src=%d dst=%d, want %d/%d",
			len(src), len(dst), count*p.mc, count*p.n)
	}
	return p.inverse(dst, src, count)
}
