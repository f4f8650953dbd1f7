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
	"runtime"
	"sync"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/trace"
	"repro/internal/twiddle"
)

// Options configure a plan. Zero values select sensible defaults.
type Options struct {
	// Mu is the cacheline block size in complex elements (default 4). The
	// effective block size of a plan is the largest divisor of l = m/2 not
	// exceeding Mu, so non-power-of-two row lengths stay legal.
	Mu int
	// BufferElems is the per-half pipeline block budget in complex
	// elements (default machine.PreferredBufferElems(), L2-derived).
	BufferElems int
	// DataWorkers (p_d) and ComputeWorkers (p_c); defaults 1/1.
	DataWorkers    int
	ComputeWorkers int
	// Radix caps the Stockham stage radix of the power-of-two 1D sub-plans
	// (0 = default 16, the fused two-stage codelet tier; 2, 4 and 8 select
	// the higher-pass-count mixes).
	Radix int
	// Unfused disables cross-stage pipeline fusion (the A/B baseline).
	Unfused bool
	// Tracer records pipeline events for schedule verification.
	Tracer *trace.Recorder
}

func (o Options) withDefaults() Options {
	if o.Mu == 0 {
		o.Mu = 4
	}
	if o.BufferElems == 0 {
		o.BufferElems = machine.PreferredBufferElems()
	}
	if o.DataWorkers == 0 {
		o.DataWorkers = 1
	}
	if o.ComputeWorkers == 0 {
		o.ComputeWorkers = 1
	}
	return o
}

func (o Options) validate(kind string, m int) error {
	if m < 2 || m%2 != 0 {
		return fmt.Errorf("rfft: %s requires an even last dimension ≥ 2, got %d", kind, m)
	}
	switch o.Radix {
	case 0, 2, 4, 8, 16:
	default:
		return fmt.Errorf("rfft: radix must be 0, 2, 4, 8 or 16, got %d", o.Radix)
	}
	if o.Mu < 1 {
		return fmt.Errorf("rfft: μ=%d, need ≥ 1", o.Mu)
	}
	return nil
}

// halfTwiddles returns w[k] = ω_{2l}^k for 0 ≤ k ≤ l/2, the table the
// untangle/retangle kernels consume.
func halfTwiddles(l int) []complex128 {
	w := make([]complex128, l/2+1)
	for k := range w {
		w[k] = twiddle.Omega(2*l, k)
	}
	return w
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

func maxInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// engine is the execution state shared by the 1D/2D/3D plans: the double
// buffer, the cached forward and inverse stage graphs with their compiled
// schedules, the persistent worker team, and one telemetry collector per
// direction (the forward and inverse graphs have different stage sets, so
// they account into separate collectors; the executor is pointed at the
// right one under the plan lock before each run).
type engine struct {
	opts Options

	bufs     *stagegraph.Buffers
	fwd, inv []stagegraph.Stage
	fwdSched *stagegraph.Schedule
	invSched *stagegraph.Schedule
	exec     *stagegraph.Executor

	obsF, obsI     *obs.Collector
	unregF, unregI func()

	lock      sync.Mutex
	closed    bool
	lastStats stagegraph.Stats
}

func stageNames(stages []stagegraph.Stage) []string {
	names := make([]string, len(stages))
	for i := range stages {
		names[i] = stages[i].Name
	}
	return names
}

// init compiles both schedules, allocates the double buffer (with staging
// halves — the inverse entangle stages store through them), registers the
// collectors under label and label+"/inv", and spawns the worker team.
func (e *engine) init(label string, o Options, elems int, fwd, inv []stagegraph.Stage) error {
	e.opts = o
	e.fwd, e.inv = fwd, inv
	e.fwdSched = stagegraph.Compile(fwd, !o.Unfused)
	e.invSched = stagegraph.Compile(inv, !o.Unfused)
	e.bufs = stagegraph.NewBuffers(elems, false, true)
	e.obsF = obs.NewCollector(o.DataWorkers, o.ComputeWorkers, stageNames(fwd))
	e.obsI = obs.NewCollector(o.DataWorkers, o.ComputeWorkers, stageNames(inv))
	_, e.unregF = obs.Default.Register(label, e.obsF)
	_, e.unregI = obs.Default.Register(label+"/inv", e.obsI)
	exec, err := stagegraph.NewExecutor(stagegraph.Config{
		DataWorkers:    o.DataWorkers,
		ComputeWorkers: o.ComputeWorkers,
		ScratchComplex: elems,
		Obs:            e.obsF,
	})
	if err != nil {
		e.unregF()
		e.unregI()
		return err
	}
	e.exec = exec
	return nil
}

// run replays one compiled direction. Callers hold the plan lock and have
// patched the per-call endpoints.
func (e *engine) run(stages []stagegraph.Stage, sched *stagegraph.Schedule, col *obs.Collector) error {
	e.exec.SetObs(col)
	st, err := e.exec.Run(e.bufs, stages, sched, e.opts.Tracer)
	if err != nil {
		return err
	}
	e.lastStats = st
	return nil
}

// ensureBatch grows the double buffer (and its staging halves) to hold
// elems complex elements per half. Growth only happens when a larger batch
// than ever before arrives; the steady state reuses the retained buffers.
func (e *engine) ensureBatch(elems int) {
	if elems > e.bufs.Elems {
		e.bufs = stagegraph.NewBuffers(elems, false, true)
	}
}

func (e *engine) close() {
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.exec != nil {
		e.exec.Close()
	}
	if e.unregF != nil {
		e.unregF()
		e.unregF = nil
	}
	if e.unregI != nil {
		e.unregI()
		e.unregI = nil
	}
}

// stats returns the most recent run's whole-transform executor stats.
func (e *engine) stats() stagegraph.Stats {
	e.lock.Lock()
	defer e.lock.Unlock()
	return e.lastStats
}

// setRoofline sets the STREAM-peak normalization on both directions'
// collectors.
func (e *engine) setRoofline(gbs float64) {
	e.obsF.SetRoofline(gbs)
	e.obsI.SetRoofline(gbs)
}

// mergeSnapshots combines the forward and inverse collectors' snapshots
// into one plan-wide view (stage lists concatenated, counters summed).
func mergeSnapshots(a, b obs.Snapshot) obs.Snapshot {
	out := a
	out.Runs += b.Runs
	out.Steps += b.Steps
	out.BothBusySteps += b.BothBusySteps
	out.WallNs += b.WallNs
	out.BarrierWaitNs += b.BarrierWaitNs
	if out.Steps > 0 {
		out.OverlapOccupancy = float64(out.BothBusySteps) / float64(out.Steps)
	}
	if b.Runs > 0 {
		out.LastRunOccupancy = b.LastRunOccupancy
	}
	out.Stages = append(append([]obs.StageSnapshot(nil), a.Stages...), b.Stages...)
	return out
}

// Plan1D is a reusable, batched r2c/c2r plan for real length n = 2l. A
// batch of count rows runs as a single-iteration stage graph — the whole
// batch is one pipeline block — so coalesced serving batches amortize the
// worker wake-up across every row (the compiled schedule only pins the
// iteration count, so the batch size may vary call to call).
type Plan1D struct {
	n, l, mc int
	eng      engine

	half *fft1d.Plan // DFT_l
	w    []complex128
}

// NewPlan1D builds a real-input FFT plan for even length n ≥ 2.
func NewPlan1D(n int, opts Options) (*Plan1D, error) {
	opts = opts.withDefaults()
	if err := opts.validate("Plan1D", n); err != nil {
		return nil, err
	}
	l := n / 2
	p := &Plan1D{n: n, l: l, mc: l + 1,
		half: fft1d.NewPlanRadix(l, opts.Radix), w: halfTwiddles(l)}
	effMu := largestDivisorAtMost(l, opts.Mu)
	lb := l / effMu

	fwd := stagegraph.Stage{
		Name: "rows", Iters: 1, Units: 1, UnitLen: l,
		Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
			if lo < hi {
				x := b.C[half][lo*l : hi*l]
				p.half.BatchArena(x, hi-lo, kernels.Forward, a)
				kernels.UntanglePackRows(x, hi-lo, l, p.w)
			}
		},
		// Packed row g lands at dst[g·(l+1)], leaving the per-row Nyquist
		// hole the post-pass fills.
		Rot: stagegraph.Rotation{Blocks: lb, BlockLen: effMu, JStride: effMu,
			Map: func(g, xb int) int { return g*(l+1) + xb*effMu }},
	}
	inv := stagegraph.Stage{
		Name: "irows", Iters: 1, Units: 1, UnitLen: p.mc,
		StoreUnits: 1, StoreLen: l, StoreFromStaging: true,
		Compute: func(b *stagegraph.Buffers, a *kernels.Arena, half, _, lo, hi int) {
			if lo < hi {
				t := b.T[half][lo*l : hi*l]
				// Every 1D row is self-conjugate: X[0] and X[n/2] are
				// forced real (dirty imaginary parts are discarded).
				kernels.EntangleRows(t, b.C[half][lo*p.mc:hi*p.mc], hi-lo, l, 0,
					func(int) bool { return true })
				kernels.RetangleRows(t, hi-lo, l, p.w, 1/float64(l))
				p.half.BatchArena(t, hi-lo, kernels.Inverse, a)
			}
		},
		Rot: stagegraph.Rotation{Blocks: lb, BlockLen: effMu, JStride: effMu,
			Map: func(g, xb int) int { return g*l + xb*effMu }},
	}

	elems := maxInt(p.mc, opts.BufferElems)
	if err := p.eng.init(fmt.Sprintf("rfft1d/%d", n), opts, elems,
		[]stagegraph.Stage{fwd}, []stagegraph.Stage{inv}); err != nil {
		return nil, err
	}
	// Backstop for callers that drop the plan without Close.
	runtime.SetFinalizer(p, (*Plan1D).Close)
	return p, nil
}

// N returns the real length.
func (p *Plan1D) N() int { return p.n }

// SpectrumLen returns n/2 + 1, the number of independent Hermitian
// coefficients per row.
func (p *Plan1D) SpectrumLen() int { return p.mc }

// Close releases the plan's persistent workers. Idempotent; plans dropped
// without Close are cleaned up by a finalizer.
func (p *Plan1D) Close() {
	p.eng.close()
	runtime.SetFinalizer(p, nil)
}

// Stats returns the most recent run's whole-transform executor stats.
func (p *Plan1D) Stats() stagegraph.Stats { return p.eng.stats() }

// SetRoofline sets the STREAM-peak normalization on both of the plan's
// collectors.
func (p *Plan1D) SetRoofline(gbs float64) { p.eng.setRoofline(gbs) }

// ObsForward returns the forward-direction telemetry collector.
func (p *Plan1D) ObsForward() *obs.Collector { return p.eng.obsF }

// ObsInverse returns the inverse-direction telemetry collector.
func (p *Plan1D) ObsInverse() *obs.Collector { return p.eng.obsI }

// Observability returns the merged forward+inverse telemetry snapshot.
func (p *Plan1D) Observability() obs.Snapshot {
	return mergeSnapshots(p.eng.obsF.Snapshot(), p.eng.obsI.Snapshot())
}

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *Plan1D) DescribeGraph() string {
	return stagegraph.Describe(p.eng.fwd, !p.eng.opts.Unfused) +
		stagegraph.Describe(p.eng.inv, !p.eng.opts.Unfused)
}

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
	e := &p.eng
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.closed {
		return fmt.Errorf("rfft: plan closed")
	}
	e.ensureBatch(count * p.mc)
	st := &e.fwd[0]
	st.Units = count
	st.Src.R = src
	st.Dst.C = dst
	err := e.run(e.fwd, e.fwdSched, e.obsF)
	st.Src.R = nil
	st.Dst.C = nil
	if err != nil {
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
	e := &p.eng
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.closed {
		return fmt.Errorf("rfft: plan closed")
	}
	e.ensureBatch(count * p.mc)
	st := &e.inv[0]
	st.Units = count
	st.StoreUnits = count
	st.Src.C = src
	st.Dst.R = dst
	err := e.run(e.inv, e.invSched, e.obsI)
	st.Src.C = nil
	st.Dst.R = nil
	return err
}
