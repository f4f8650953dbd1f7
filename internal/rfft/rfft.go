// Package rfft implements real-input (r2c) and real-output (c2r) FFTs of
// rank one to three as compiled stage graphs on the same pipelined
// double-buffer executor as the complex transforms — real transforms are
// first-class citizens of the bandwidth-efficient stack, not wrappers
// around it. One type, Plan, covers every rank, as core.Plan does for the
// complex transforms.
//
// # The packed-Hermitian pipeline
//
// An m = 2l real row is pair-packed into l complex lanes during the load
// (stagegraph's fused real endpoint: 8 B of traffic per real element), sent
// through a half-length FFT_l, and Hermitian-untangled into the real-input
// spectrum X[0…l]. Because X[0] and X[l] are purely real, the untangled row
// is re-packed into the same l lanes — lane 0 holds complex(X[0], X[l]) —
// so rows keep their μ-divisible length through every later column/pencil
// stage of a rank-2 or rank-3 graph. The DFT is linear, so the later stages
// transform the packed lane-0 column exactly as they would have transformed
// the two real columns; one in-place O(rows) post-pass splits the packed DC
// lanes into the DC and Nyquist entries of the natural half-spectrum
// output, pairing each row with its mirror (every outer coordinate negated).
// A rank-1 row is its own mirror and is unpacked on its own. Inverses run
// the mirror pipeline: an entangle stage re-packs the natural half-spectrum
// (forcing the self-conjugate bins real), the pencil stages run inverse
// with their 1/n scales applied — in the compute leg, or on the way out of
// the store when the stage folds its last radix-4 butterfly into it, as
// complex pencil stages do — and the last stage retangles (with the row
// transform's 1/l) and stores real rows through the fused unpack. Each
// graph runs in the direction its call names, like a complex one.
//
//	rank 2 forward:  rows (pack+DFT_l+untangle) → cols (DFT_n ⊗ I_μ) + DC pass
//	rank 2 inverse:  entangle → cols⁻¹ (scaled 1/n) → rows⁻¹ (retangle+IDFT_l)
//	rank 3 forward:  x-rows → y-pencils → z-pencils + DC pass
//	rank 3 inverse:  entangle → y⁻¹ (scaled 1/n) → z⁻¹ (scaled 1/k) → x⁻¹
//
// (The rank-3 inverse undoes the pencil stages in y-then-z order — the axis
// DFTs commute, and that order lets every stage load its input
// contiguously.)
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
	"slices"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/twiddle"
)

const (
	fwdGraph = 0
	invGraph = 1
)

// Plan is a reusable r2c/c2r plan over a real row-major grid of rank 1–3:
// the runner holding the forward (graph 0) and inverse (graph 1) stage
// graphs — different stage sets, so each accounts into its own telemetry
// collector — on one double buffer and one persistent worker team.
// Transforms serialise on the runner's lock and the DC/Nyquist pass touches
// only the caller's dst, so the plan is safe for concurrent use.
//
// A rank-1 plan also transforms batches: count rows run as a
// single-iteration stage graph — the whole batch is one pipeline block — so
// coalesced serving batches amortize the worker wake-up across every row
// (the compiled schedule only pins the iteration count, so the batch size
// may vary call to call).
type Plan struct {
	dims  []int // real extents, slowest first
	l, mc int   // half row length m/2 and spectrum row length m/2+1
	rows  int   // rows of one grid: the product of the outer extents
	run   *stagegraph.Runner
}

// NewPlan builds the real plan of extents dims, slowest first: one to three
// of them, each ≥ 1, the last even. A real plan always runs the pipeline:
// of the configuration it reads the block sizes, the worker counts, the
// tracer and the roofline. Two scratch arrays of the packed grid's size
// carry both chains, stage by stage in turn: work1 holds the transposed
// blocks after the forward rows / inverse entangle stage, work2 what the
// next stage stores, and so on.
func NewPlan(cfg core.Config, dims ...int) (*Plan, error) {
	D := len(dims)
	if D < 1 || D > 3 || slices.Min(dims) < 1 || dims[D-1]%2 != 0 {
		return nil, fmt.Errorf("rfft: invalid size %v: want 1 to 3 extents ≥ 1, the last even", dims)
	}
	l := dims[D-1] / 2
	d, err := cfg.Pencils("rfft", append(slices.Clone(dims[:D-1]), l)...)
	if err != nil {
		return nil, err
	}
	p := &Plan{dims: slices.Clone(dims), l: l, mc: l + 1, rows: 1}
	for _, n := range dims[:D-1] {
		p.rows *= n
	}
	label := fmt.Sprintf("rfft%dd/%d", D, dims[0])
	for _, n := range dims[1:] {
		label += fmt.Sprintf("x%d", n)
	}

	w := make([]complex128, l/2+1) // ω_{2l}^k, the untangle/retangle table
	for k := range w {
		w[k] = twiddle.Omega(2*l, k)
	}
	var mid []stagegraph.Array // D of them, alternating between two arrays
	if D > 1 {
		work := [2][]complex128{make([]complex128, p.rows*l), make([]complex128, p.rows*l)}
		for i := 0; i < D; i++ {
			mid = append(mid, stagegraph.Array{C: work[i%2]})
		}
	}
	d.Mid = mid[:max(D-1, 0)]
	d.Real = &stagegraph.RealEnd{
		Pitch:    p.mc,
		Untangle: func(x []complex128, rows int) { kernels.UntanglePackRows(x, rows, l, w) },
	}
	fwd, err := d.Build()
	if err != nil {
		return nil, err
	}
	// The entangle stage forces the DC and Nyquist bins of the
	// self-conjugate rows — their own mirrors — real.
	selfConj := func(g int) bool { return p.mirror(g) == g }
	d.Mid = mid
	d.Real = &stagegraph.RealEnd{
		Inverse: true, Pitch: p.mc,
		Entangle: func(t, c []complex128, rows, row0 int) {
			kernels.EntangleRows(t, c, rows, l, row0, selfConj)
		},
		Retangle: func(x []complex128, rows int) { kernels.RetangleRows(x, rows, l, w, 1/float64(l)) },
	}
	inv, err := d.Build()
	if err != nil {
		return nil, err
	}
	if p.run, err = cfg.NewRunner("rfft", []string{label, label + "/inv"}, fwd, inv); err != nil {
		return nil, err
	}
	return p, nil
}

// Dims returns the real extents, slowest first.
func (p *Plan) Dims() []int { return slices.Clone(p.dims) }

// RealLen returns the real element count of one grid, ∏dims.
func (p *Plan) RealLen() int { return p.rows * 2 * p.l }

// SpectrumLen returns the half-spectrum element count of one grid: ∏dims
// with the last extent m replaced by m/2+1.
func (p *Plan) SpectrumLen() int { return p.rows * p.mc }

// Forward computes the unnormalized half spectrum of one grid: len(src) must
// be RealLen(), len(dst) SpectrumLen(). They are the only per-call
// endpoints, so the steady state is allocation-free.
func (p *Plan) Forward(dst []complex128, src []float64) error {
	return p.ForwardBatch(dst, src, 1)
}

// ForwardBatch transforms count grids packed contiguously: src holds
// count·RealLen() reals, dst receives count·SpectrumLen() coefficients. A
// plan of rank ≥ 2 transforms one grid a call (count = 1).
func (p *Plan) ForwardBatch(dst []complex128, src []float64, count int) error {
	if err := p.check("ForwardBatch", len(src), len(dst), count); err != nil {
		return err
	}
	err := p.run.Run(fwdGraph, stagegraph.Call{
		In: stagegraph.Endpoint{R: src}, Out: stagegraph.Endpoint{C: dst}, Sign: fft1d.Forward, Count: count})
	if err != nil {
		return err
	}
	if len(p.dims) == 1 {
		// Each row's packed lane 0 holds complex(X[0], X[l]).
		for g := 0; g < count; g++ {
			a := dst[g*p.mc]
			dst[g*p.mc], dst[g*p.mc+p.l] = complex(real(a), 0), complex(imag(a), 0)
		}
		return nil
	}
	p.splitDC(dst)
	return nil
}

// splitDC splits the packed lane-0 column A[r] = C₀[r] + i·C_l[r] of the
// outer grid into the DC column C₀ and the Nyquist column C_l, in place,
// using the Hermitian symmetry of both (they are DFTs of real columns): for
// each row r and its mirror r′, C₀[r] = (A[r] + conj(A[r′]))/2 and
// C_l[r] = (A[r] − conj(A[r′]))/(2i). Each pair is read before either row
// is written, so no scratch is needed.
func (p *Plan) splitDC(dst []complex128) {
	l, mc := p.l, p.mc
	split := func(r int, a, am complex128) {
		d := a - conjc(am)
		dst[r*mc] = (a + conjc(am)) / 2
		dst[r*mc+l] = complex(imag(d)/2, -real(d)/2) // d/(2i)
	}
	for r := 0; r < p.rows; r++ {
		rm := p.mirror(r)
		if rm < r {
			continue
		}
		a, am := dst[r*mc], dst[rm*mc]
		split(r, a, am)
		if rm != r {
			split(rm, am, a)
		}
	}
}

// mirror returns the row whose every outer coordinate is r's negated modulo
// its extent. A row number past the outer grid — a rank-1 batch row — is
// its own mirror.
func (p *Plan) mirror(r int) int {
	m, stride := 0, 1
	for i := len(p.dims) - 2; i >= 0; i-- {
		n := p.dims[i]
		m += (n - r/stride%n) % n * stride
		stride *= n
	}
	return m + r/stride*stride
}

// Inverse reconstructs one real grid from its half spectrum; the transform
// is fully normalized, so Inverse ∘ Forward is the identity. The imaginary
// parts of the self-conjugate bins (every outer index 0 or half its
// extent, kx ∈ {0, m/2}) are forced to zero on the way in — dirt in them
// would otherwise leak a complex component into the output. src is not
// modified.
func (p *Plan) Inverse(dst []float64, src []complex128) error {
	return p.InverseBatch(dst, src, 1)
}

// InverseBatch reconstructs count real grids from contiguously packed half
// spectra: src holds count·SpectrumLen() coefficients, dst receives
// count·RealLen() reals. A plan of rank ≥ 2 transforms one grid a call.
func (p *Plan) InverseBatch(dst []float64, src []complex128, count int) error {
	if err := p.check("InverseBatch", len(dst), len(src), count); err != nil {
		return err
	}
	return p.run.Run(invGraph, stagegraph.Call{
		In: stagegraph.Endpoint{C: src}, Out: stagegraph.Endpoint{R: dst}, Sign: fft1d.Inverse, Count: count})
}

// check validates a call's count and its real and spectrum lengths.
func (p *Plan) check(op string, re, spec, count int) error {
	if count < 1 || (count > 1 && len(p.dims) > 1) {
		return fmt.Errorf("rfft: %s count=%d on a rank-%d plan", op, count, len(p.dims))
	}
	// Dividing the real length, not multiplying the count, cannot overflow;
	// count·SpectrumLen() is then at most re.
	if n := p.RealLen(); re%n != 0 || re/n != count || spec != count*p.SpectrumLen() {
		return fmt.Errorf("rfft: %s lengths real=%d spectrum=%d, want %d grid(s) of %d/%d",
			op, re, spec, count, p.RealLen(), p.SpectrumLen())
	}
	return nil
}

// Close releases the plan's persistent workers. Idempotent; plans dropped
// without Close are cleaned up by a finalizer.
func (p *Plan) Close() { p.run.Close() }

// Stats returns the most recent run's whole-transform executor stats.
func (p *Plan) Stats() stagegraph.Stats { return p.run.Stats() }

// Observability returns the merged forward+inverse telemetry snapshot.
func (p *Plan) Observability() obs.Snapshot { return p.run.Observability() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }

func conjc(z complex128) complex128 { return complex(real(z), -imag(z)) }
