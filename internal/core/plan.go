package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/stagegraph"
	"repro/internal/twiddle"
)

// The graphs of a plan's runner: a complex plan runs graph 0 in either
// direction; a real plan's forward and inverse are different stage sets,
// each accounting into its own telemetry collector.
const (
	fwdGraph = 0
	invGraph = 1
)

// ErrDomain is wrapped by the error an entry point returns on a plan of the
// other domain: a complex transform on a real plan, or a real one on a
// complex plan.
var ErrDomain = errors.New("entry point of the other domain")

// Plan is a reusable pipelined FFT plan over a row-major array of fixed
// extents: the runner holding its compiled stage graphs, their double
// buffer and a persistent worker team. Transforms serialise on the runner's
// lock and the real DC/Nyquist pass touches only the caller's dst, so the
// plan is safe for concurrent use; independent plans run fully in parallel.
//
// A complex plan of extents k×n×m (or n×m) runs one stage per dimension,
// each load-contiguous → compute-contiguous-pencils → store-blocked-rotation,
// and after the rotations the array is back in its original layout:
//
//	(K_k^{n,m/μ} ⊗ I_μ)(I_{nm/μ} ⊗ DFT_k ⊗ I_μ)    Stage 3
//	(K_n^{m/μ,k} ⊗ I_μ)(I_{mk/μ} ⊗ DFT_n ⊗ I_μ)    Stage 2
//	(K_{m/μ}^{k,n} ⊗ I_μ)(I_{kn} ⊗ DFT_m)          Stage 1
//
// (for rank 2 the blocked transpose and its inverse). Forward transforms are
// unnormalized in both directions; Inverse is normalized.
//
// A real plan is the packed-Hermitian pipeline. An m = 2l real row is
// pair-packed into l complex lanes during the load (stagegraph's fused real
// endpoint: 8 B of traffic per real element), sent through a half-length
// FFT_l, and Hermitian-untangled into the real-input spectrum X[0…l].
// Because X[0] and X[l] are purely real, the untangled row is re-packed into
// the same l lanes — lane 0 holds complex(X[0], X[l]) — so rows keep their
// μ-divisible length through every later pencil stage. The DFT is linear,
// so the later stages transform the packed lane-0 column exactly as they
// would have transformed the two real columns; one in-place O(rows)
// post-pass (splitDC) splits the packed DC lanes into the DC and Nyquist
// entries of the natural half-spectrum output. Inverses run the mirror
// pipeline: an entangle stage re-packs the natural half spectrum (forcing
// the self-conjugate bins real), the pencil stages run inverse with their
// 1/n scales applied, and the last stage retangles (with the row
// transform's 1/l) and stores real rows through the fused unpack.
//
//	rank 2 forward:  rows (pack+DFT_l+untangle) → cols (DFT_n ⊗ I_μ) + DC pass
//	rank 2 inverse:  entangle → cols⁻¹ (scaled 1/n) → rows⁻¹ (retangle+IDFT_l)
//	rank 3 forward:  x-rows → y-pencils → z-pencils + DC pass
//	rank 3 inverse:  entangle → y⁻¹ (scaled 1/n) → z⁻¹ (scaled 1/k) → x⁻¹
//
// (The rank-3 inverse undoes the pencil stages in y-then-z order — the axis
// DFTs commute, and that order lets every stage load its input
// contiguously.) A real grid …×n×m has the half spectrum …×n×(m/2+1),
// row-major and Hermitian in the remaining axes; Inverse ∘ Forward is the
// identity. A rank-1 real plan also transforms batches: count rows run as a
// single-iteration stage graph, so coalesced serving batches amortize the
// worker wake-up across every row.
type Plan struct {
	pkg  string // error prefix: "fft2d", "fft3d" or "rfft"
	dims []int  // extents, slowest first; a real plan's are the real grid's
	n    int    // elements of one array, ∏dims
	real bool
	// A real plan's half row length m/2 and the rows of one grid, the
	// product of the outer extents.
	l, rows int
	run     *stagegraph.Runner
}

// NewPlan builds the plan of extents dims, slowest first: a complex plan of
// two or three extents, or a real plan of one to three, the last even. A
// plan reads every Config field: the block sizes, the worker counts, the
// tracer, the roofline, and — for a complex plan — the machine whose
// perfmodel prediction its telemetry reports divergence against.
func NewPlan(cfg Config, real bool, dims ...int) (*Plan, error) {
	D := len(dims)
	p := &Plan{pkg: fmt.Sprintf("fft%dd", D), dims: slices.Clone(dims), real: real}
	prefix, lanes := "fft", dims
	if real {
		if D < 1 || D > 3 || slices.Min(dims) < 1 || dims[D-1]%2 != 0 {
			return nil, fmt.Errorf("rfft: invalid size %v: want 1 to 3 extents ≥ 1, the last even", dims)
		}
		p.pkg, prefix, p.l = "rfft", "rfft", dims[D-1]/2
		lanes = append(slices.Clone(dims[:D-1]), p.l)
	} else if D != 2 && D != 3 {
		return nil, fmt.Errorf("core: invalid complex size %v: want 2 or 3 extents (rank 1 is fft1d.Plan)", dims)
	}
	if cfg.Strategy != DoubleBuf {
		return nil, fmt.Errorf("%s: unknown strategy %d", p.pkg, cfg.Strategy)
	}
	// Extents Elems refuses — for a real plan, its packed lanes, which bound
	// the real grid and the half spectrum — are refused before any sub-plan
	// is built.
	if _, ok := Elems(lanes...); !ok {
		return nil, fmt.Errorf("%s: invalid size %v: extents must be ≥ 1, at most %d elements",
			p.pkg, lanes, MaxElems)
	}
	d := stagegraph.Pencils{Pkg: p.pkg, Dims: lanes, Plans: make([]*fft1d.Plan, D), Mu: cfg.Mu, BufferElems: cfg.BufferElems}
	for i, e := range lanes {
		d.Plans[i] = stagegraph.Plan1D(e)
	}
	p.n = 1
	for _, e := range dims {
		p.n *= e
	}
	p.rows = p.n / dims[D-1]
	label := fmt.Sprintf("%s%dd/%d", prefix, D, dims[0])
	for _, e := range dims[1:] {
		label += fmt.Sprintf("x%d", e)
	}
	var graphs []*stagegraph.Graph
	var err error
	if real {
		graphs, err = p.realGraphs(d)
	} else {
		// A 2D graph stores stage 1 into the work array and stage 2 into dst;
		// a 3D one runs src→dst, dst→work, work→dst, so the input is preserved
		// and one work array serves. The fused schedule keeps the reuse safe:
		// stage 3's first store runs strictly after stage 2's last load of dst
		// (see stagegraph.BuildSchedule).
		work := stagegraph.Array{C: make([]complex128, p.n)}
		d.Mid = []stagegraph.Array{work}
		if D == 3 {
			d.Mid = []stagegraph.Array{{}, work}
		}
		var g *stagegraph.Graph
		g, err = d.Build()
		graphs = []*stagegraph.Graph{g}
	}
	if err != nil {
		return nil, err
	}
	p.run, err = stagegraph.NewRunner(stagegraph.RunnerConfig{
		Pkg: p.pkg, Labels: []string{label, label + "/inv"}[:len(graphs)],
		DataWorkers: cfg.DataWorkers, ComputeWorkers: cfg.ComputeWorkers, Tracer: cfg.Tracer,
	}, graphs...)
	if err != nil {
		return nil, err
	}
	p.run.SetRoofline(cfg.Roofline())
	if mo := cfg.model(); mo != nil && !real {
		est := mo.DoubleBuf2D(dims[0], dims[1])
		if D == 3 {
			est = mo.DoubleBuf3D(dims[0], dims[1], dims[2], 1)
		}
		p.run.Obs(fwdGraph).SetPredicted(est.StagePredictions())
	}
	return p, nil
}

// realGraphs builds the forward and inverse graphs of a real plan from its
// descriptor d over the packed lanes. Two scratch arrays of the packed
// grid's size carry both chains, stage by stage in turn: one holds the
// transposed blocks after the forward rows / inverse entangle stage, the
// other what the next stage stores, and so on.
func (p *Plan) realGraphs(d stagegraph.Pencils) ([]*stagegraph.Graph, error) {
	D, l, mc := len(p.dims), p.l, p.l+1
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
		Pitch:    mc,
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
		Inverse: true, Pitch: mc,
		Entangle: func(t, c []complex128, rows, row0 int) {
			kernels.EntangleRows(t, c, rows, l, row0, selfConj)
		},
		Retangle: func(x []complex128, rows int) { kernels.RetangleRows(x, rows, l, w, 1/float64(l)) },
	}
	inv, err := d.Build()
	if err != nil {
		return nil, err
	}
	return []*stagegraph.Graph{fwd, inv}, nil
}

// Close releases the plan's persistent executor workers. Idempotent and
// safe to call concurrently — with other Close calls and with a transform
// in flight (Close waits for the transform to finish; later transforms
// return an error). Plans dropped without Close are cleaned up by a
// finalizer.
func (p *Plan) Close() { p.run.Close() }

// Dims returns the extents, slowest first (a real plan's real grid).
func (p *Plan) Dims() []int { return slices.Clone(p.dims) }

// Len returns the element count of one array, the product of the extents:
// the complex array, or a real plan's real grid.
func (p *Plan) Len() int { return p.n }

// SpectrumLen returns the element count of one transformed array: Len for a
// complex plan, the half spectrum ∏dims with the last extent m replaced by
// m/2+1 for a real one.
func (p *Plan) SpectrumLen() int {
	if p.real {
		return p.rows * (p.l + 1)
	}
	return p.n
}

// Iters returns the pipeline iteration count of each (forward) stage (the
// paper's iter = N/b).
func (p *Plan) Iters() []int { return slices.Clone(p.run.Iters(fwdGraph)) }

// domain returns the error of an op of the wrong domain, or nil.
func (p *Plan) domain(op string, real bool) error {
	if p.real == real {
		return nil
	}
	kind := "complex"
	if p.real {
		kind = "real"
	}
	return fmt.Errorf("%s: %s on a %s plan: %w", p.pkg, op, kind, ErrDomain)
}

// Transform computes dst = DFT(src) out of place on a complex plan,
// unnormalized in both directions; dst and src must each have length Len()
// and must not overlap.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	return p.transform("Transform", dst, src, sign, 0)
}

// Inverse computes the normalized inverse transform out of place on a
// complex plan: Transform(dst, src, fft1d.Inverse) followed by
// fft1d.Scale(dst, 1/Len()), bitwise. The scale rides the last stage's store
// or compute leg, so dst is not swept once more.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.transform("Inverse", dst, src, fft1d.Inverse, 1/float64(p.n))
}

func (p *Plan) transform(op string, dst, src []complex128, sign int, scale float64) error {
	if err := p.domain(op, false); err != nil {
		return err
	}
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("%s: Transform lengths dst=%d src=%d, want %d", p.pkg, len(dst), len(src), p.n)
	}
	return p.run.Run(fwdGraph, stagegraph.Call{In: stagegraph.Endpoint{C: src},
		Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
}

// InPlace computes x = DFT(x) on a complex plan through a temporary of the
// same size.
func (p *Plan) InPlace(x []complex128, sign int) error {
	if len(x) != p.n {
		return fmt.Errorf("%s: InPlace length %d, want %d", p.pkg, len(x), p.n)
	}
	tmp := make([]complex128, p.n)
	if err := p.Transform(tmp, x, sign); err != nil {
		return err
	}
	copy(x, tmp)
	return nil
}

// TransformMany applies a complex plan to count independent arrays stored
// back-to-back (the FFTW "many"/howmany interface): dst and src must each
// hold count·Len() elements and must not overlap. The arrays execute
// sequentially on the plan's buffers and work arrays, so the planning and
// allocation cost is paid once.
func (p *Plan) TransformMany(dst, src []complex128, count, sign int) error {
	if err := p.domain("TransformMany", false); err != nil {
		return err
	}
	if count < 1 {
		return fmt.Errorf("%s: TransformMany count=%d", p.pkg, count)
	}
	// Dividing the lengths, not multiplying the count, cannot overflow.
	if len(dst)%p.n != 0 || len(dst)/p.n != count || len(src) != len(dst) {
		return fmt.Errorf("%s: TransformMany lengths dst=%d src=%d, want %d·%d",
			p.pkg, len(dst), len(src), count, p.n)
	}
	for c := 0; c < count; c++ {
		if err := p.Transform(dst[c*p.n:(c+1)*p.n], src[c*p.n:(c+1)*p.n], sign); err != nil {
			return fmt.Errorf("%s: batch element %d: %w", p.pkg, c, err)
		}
	}
	return nil
}

// ForwardReal computes the unnormalized half spectra of count real grids
// packed contiguously on a real plan: src holds count·Len() reals, dst
// receives count·SpectrumLen() coefficients. A plan of rank ≥ 2 transforms
// one grid a call (count = 1). They are the only per-call endpoints, so the
// steady state is allocation-free.
func (p *Plan) ForwardReal(dst []complex128, src []float64, count int) error {
	if err := p.checkReal("ForwardReal", len(src), len(dst), count); err != nil {
		return err
	}
	err := p.run.Run(fwdGraph, stagegraph.Call{
		In: stagegraph.Endpoint{R: src}, Out: stagegraph.Endpoint{C: dst}, Sign: fft1d.Forward, Count: count})
	if err != nil {
		return err
	}
	p.splitDC(dst, count)
	return nil
}

// InverseReal reconstructs count real grids from contiguously packed half
// spectra on a real plan: src holds count·SpectrumLen() coefficients, dst
// receives count·Len() reals. The transform is fully normalized, so it
// inverts ForwardReal. The imaginary parts of the self-conjugate bins (every
// outer index 0 or half its extent, kx ∈ {0, m/2}) are forced to zero on the
// way in — dirt in them would otherwise leak a complex component into the
// output; src is not modified. A plan of rank ≥ 2 transforms one grid a
// call.
func (p *Plan) InverseReal(dst []float64, src []complex128, count int) error {
	if err := p.checkReal("InverseReal", len(dst), len(src), count); err != nil {
		return err
	}
	return p.run.Run(invGraph, stagegraph.Call{
		In: stagegraph.Endpoint{C: src}, Out: stagegraph.Endpoint{R: dst}, Sign: fft1d.Inverse, Count: count})
}

// checkReal validates a real call's domain, count and real and spectrum
// lengths.
func (p *Plan) checkReal(op string, re, spec, count int) error {
	if err := p.domain(op, true); err != nil {
		return err
	}
	if count < 1 || (count > 1 && len(p.dims) > 1) {
		return fmt.Errorf("rfft: %s count=%d on a rank-%d plan", op, count, len(p.dims))
	}
	// Dividing the real length, not multiplying the count, cannot overflow;
	// count·SpectrumLen() is then at most re.
	if re%p.n != 0 || re/p.n != count || spec != count*p.SpectrumLen() {
		return fmt.Errorf("rfft: %s lengths real=%d spectrum=%d, want %d grid(s) of %d/%d",
			op, re, spec, count, p.n, p.SpectrumLen())
	}
	return nil
}

// splitDC is the forward real post-pass over count grids of dst. A rank-1
// row's packed lane 0 holds complex(X[0], X[l]) and is unpacked on its own.
// At rank ≥ 2 it splits the packed lane-0 column A[r] = C₀[r] + i·C_l[r] of
// the outer grid into the DC column C₀ and the Nyquist column C_l, in place,
// using the Hermitian symmetry of both (they are DFTs of real columns): for
// each row r and its mirror r′, C₀[r] = (A[r] + conj(A[r′]))/2 and
// C_l[r] = (A[r] − conj(A[r′]))/(2i). Each pair is read before either row
// is written, so no scratch is needed.
func (p *Plan) splitDC(dst []complex128, count int) {
	l, mc := p.l, p.l+1
	if len(p.dims) == 1 {
		for g := 0; g < count; g++ {
			a := dst[g*mc]
			dst[g*mc], dst[g*mc+l] = complex(real(a), 0), complex(imag(a), 0)
		}
		return
	}
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

func conjc(z complex128) complex128 { return complex(real(z), -imag(z)) }

// Stats returns the whole-transform executor stats of the most recent
// transform (the zero value before the first).
func (p *Plan) Stats() Stats { return p.run.Stats() }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed (a real plan's forward and inverse
// graphs, concatenated).
func (p *Plan) Observability() Observability { return p.run.Observability() }

// Mu returns the effective cacheline block size (after defaulting).
func (p *Plan) Mu() int { return p.run.Mu() }

// NonTemporalStages reports how many stages currently route stores through
// the streaming tier.
func (p *Plan) NonTemporalStages() int { return p.run.NonTemporalStages() }

// ScalesInStore reports whether a complex plan's Inverse 1/N rides the last
// stage's store (else it runs in that stage's compute leg).
func (p *Plan) ScalesInStore() bool { return p.run.ScalesInStore(fwdGraph) }

// DescribeGraph renders the compiled stage graphs the plan executes (a real
// plan's forward and inverse), with each stage's current store mode.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }
