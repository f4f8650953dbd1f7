// Package fft3d implements three-dimensional FFTs over k×n×m row-major
// complex128 cubes (z, y, x with x fastest) with four strategies:
//
//   - Reference: row-column-pillar via the lane driver; correctness oracle.
//
//   - Pencil: non-overlapped pencil-pencil-pencil with in-place strided
//     stages — the memory behaviour the paper ascribes to MKL/FFTW.
//
//   - Slab: slab-pencil decomposition fusing the first two stages inside a
//     z-slab (what FFTW effectively does on the big-cache AMD parts, §V).
//
//   - DoubleBuf: the paper's scheme (§III): three pipelined stages, each
//     load-contiguous → compute-contiguous-pencils → store-blocked-rotation,
//     with soft-DMA data workers and compute workers. After three rotations
//     the cube is back in its original layout:
//
//     (K_k^{n,m/μ} ⊗ I_μ)(I_{nm/μ} ⊗ DFT_k ⊗ I_μ)    Stage 3
//     (K_n^{m/μ,k} ⊗ I_μ)(I_{mk/μ} ⊗ DFT_n ⊗ I_μ)    Stage 2
//     (K_{m/μ}^{k,n} ⊗ I_μ)(I_{kn} ⊗ DFT_m)          Stage 1
package fft3d

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// Strategy selects the execution plan.
type Strategy int

const (
	// Reference is the simple three-stage algorithm.
	Reference Strategy = iota
	// Pencil is the non-overlapped strided baseline.
	Pencil
	// Slab fuses stages 1+2 per z-slab, then does the strided z-stage.
	Slab
	// DoubleBuf is the paper's pipelined double-buffering scheme.
	DoubleBuf
)

func (s Strategy) String() string {
	switch s {
	case Reference:
		return "reference"
	case Pencil:
		return "pencil"
	case Slab:
		return "slab"
	case DoubleBuf:
		return "doublebuf"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configure a plan. Zero values select sensible defaults.
type Options struct {
	Strategy Strategy
	// Mu is the cacheline block size in complex elements. The default is
	// machine.PreferredMu(m) — the largest of 8, 4, 2 dividing m (μ=8
	// spans two full cachelines and measures near STREAM peak on the
	// blocked rotations; see fft2d.Options.Mu).
	Mu int
	// BufferElems is the per-half pipeline block size b in complex
	// elements; default machine.PreferredBufferElems(), sized so both
	// halves stay L2-resident (the paper's b = cache/2 halves applied to
	// the cache level the staging buffers actually live in).
	BufferElems int
	// DataWorkers (p_d) / ComputeWorkers (p_c) drive DoubleBuf; Workers
	// is the pool size for the baselines.
	DataWorkers    int
	ComputeWorkers int
	Workers        int
	// SplitFormat runs the DoubleBuf compute stages in block-interleaved
	// format with fused conversions at the boundary stages (§IV-A).
	SplitFormat bool
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
	// for the DoubleBuf stages; default StoreAuto decides from the
	// per-stage destination footprint vs the host LLC (see fft2d).
	StorePolicy stagegraph.StorePolicy
	// Tracer records pipeline events.
	Tracer *trace.Recorder
}

func (o Options) withDefaults() Options {
	// Mu's default needs the transform size; NewPlan fills it via
	// machine.PreferredMu.
	if o.BufferElems == 0 {
		o.BufferElems = machine.PreferredBufferElems()
	}
	if o.DataWorkers == 0 {
		o.DataWorkers = 1
	}
	if o.ComputeWorkers == 0 {
		o.ComputeWorkers = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Plan is a reusable 3D FFT execution plan for a fixed k×n×m size.
type Plan struct {
	k, n, m int
	opts    Options

	planM *fft1d.Plan // DFT_m (x pencils)
	planN *fft1d.Plan // DFT_n (y pencils)
	planK *fft1d.Plan // DFT_k (z pencils)

	// DoubleBuf geometry.
	mb     int // m/μ
	rows1  int // (z,y)-pencils per stage-1 block
	units2 int // (xb,z) n·μ-units per stage-2 block
	units3 int // (y,xb) k·μ-units per stage-3 block

	// The work arrays, double buffer, cached stage graph and persistent
	// executor are shared scratch, so DoubleBuf transforms serialize on
	// lock (the plan stays safe for concurrent use; independent plans run
	// fully in parallel). Stages and schedule compile once at plan time;
	// per call only the src/dst endpoints and curSign are patched.
	work    []complex128
	workRe  []float64
	workIm  []float64
	wrk2Re  []float64
	wrk2Im  []float64
	bufs    *stagegraph.Buffers
	stages  []stagegraph.Stage
	sched   *stagegraph.Schedule
	exec    *stagegraph.Executor
	curSign int
	// curScale, when non-zero, is the 1/N the last stage's compute hook
	// applies to each block while it is still in cache; patched per call
	// under lock like curSign. Inverse uses it when scaleInStage (set in
	// NewPlan) says that is bitwise-identical to scaling dst afterwards.
	curScale     float64
	scaleInStage bool

	obs      *obs.Collector
	obsUnreg func()

	lock      sync.Mutex
	closed    bool
	lastStats stagegraph.Stats
}

// NewPlan validates the size and options and precomputes sub-plans.
func NewPlan(k, n, m int, opts Options) (*Plan, error) {
	if k < 1 || n < 1 || m < 1 {
		return nil, fmt.Errorf("fft3d: invalid size %dx%dx%d", k, n, m)
	}
	opts = opts.withDefaults()
	switch opts.Radix {
	case 0, 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("fft3d: radix must be 0, 2, 4, 8 or 16, got %d", opts.Radix)
	}
	p := &Plan{k: k, n: n, m: m, opts: opts,
		planM: fft1d.NewPlanRadix(m, opts.Radix),
		planN: fft1d.NewPlanRadix(n, opts.Radix),
		planK: fft1d.NewPlanRadix(k, opts.Radix)}
	if opts.Strategy == DoubleBuf {
		if opts.Mu == 0 {
			opts.Mu = machine.PreferredMu(m)
			p.opts.Mu = opts.Mu
		}
		mu := opts.Mu
		if mu < 1 {
			return nil, fmt.Errorf("fft3d: μ=%d, need ≥ 1", mu)
		}
		if m%mu != 0 {
			return nil, fmt.Errorf("fft3d: μ=%d does not divide m=%d", mu, m)
		}
		p.mb = m / mu
		total := k * n * m
		// Besides the buffer-capacity cap, blocks are kept small enough
		// that each stage runs at least minStageIters pipeline iterations:
		// fused steady-state occupancy is I/(I+S+1), so a deep-enough
		// pipeline is what hides the ramp and drain (see fft2d.blockCap).
		p.rows1 = largestDivisorAtMost(k*n, blockCap(k*n, opts.BufferElems/m))
		p.units2 = largestDivisorAtMost(p.mb*k, blockCap(p.mb*k, opts.BufferElems/(n*mu)))
		p.units3 = largestDivisorAtMost(n*p.mb, blockCap(n*p.mb, opts.BufferElems/(k*mu)))
		b := maxInt(p.rows1*m, maxInt(p.units2*n*mu, p.units3*k*mu))
		if opts.SplitFormat {
			p.workRe = make([]float64, total)
			p.workIm = make([]float64, total)
			p.wrk2Re = make([]float64, total)
			p.wrk2Im = make([]float64, total)
		} else {
			p.work = make([]complex128, total)
		}
		p.bufs = stagegraph.NewBuffers(b, opts.SplitFormat, false)
		p.stages = p.buildStages()
		// Scaling a stage-3 block in its compute leg is the same fft1d.Scale
		// on the same values a pass over dst would apply. Ahead of a folded
		// butterfly that holds only when the scale is a power of two (exact,
		// so it commutes with the butterfly's adds); other folded shapes,
		// and split buffers, keep the pass.
		p.scaleInStage = !opts.SplitFormat && (p.stages[2].StoreRadix == 0 || total&(total-1) == 0)
		stagegraph.ApplyStorePolicy(p.stages,
			opts.StorePolicy.Decide(p.destBytes(), machine.HostLLCBytes()))
		p.sched = stagegraph.Compile(p.stages, !opts.Unfused)
		names := make([]string, len(p.stages))
		for i := range p.stages {
			names[i] = p.stages[i].Name
		}
		p.obs = obs.NewCollector(opts.DataWorkers, opts.ComputeWorkers, names)
		_, p.obsUnreg = obs.Default.Register(fmt.Sprintf("fft3d/%dx%dx%d", k, n, m), p.obs)
		scratchC, scratchF := b, 0
		if opts.SplitFormat {
			scratchC, scratchF = 0, 2*b
		}
		exec, err := stagegraph.NewExecutor(stagegraph.Config{
			DataWorkers:    opts.DataWorkers,
			ComputeWorkers: opts.ComputeWorkers,
			ScratchComplex: scratchC,
			ScratchFloat:   scratchF,
			Obs:            p.obs,
		})
		if err != nil {
			return nil, err
		}
		p.exec = exec
		// Backstop for callers that drop the plan without Close: once the
		// plan is unreachable no Run can be in flight, so the finalizer may
		// release the parked workers.
		runtime.SetFinalizer(p, (*Plan).Close)
	}
	return p, nil
}

// Close releases the plan's persistent executor workers. Idempotent and
// safe to call concurrently — with other Close calls and with a Transform
// in flight (Close waits for the transform to finish; later Transforms
// return an error). Plans dropped without Close are cleaned up by a
// finalizer.
func (p *Plan) Close() {
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

// isClosed reports whether Close has begun.
func (p *Plan) isClosed() bool {
	p.lock.Lock()
	defer p.lock.Unlock()
	return p.closed
}

// Dims returns (k, n, m).
func (p *Plan) Dims() (k, n, m int) { return p.k, p.n, p.m }

// Len returns the total element count k·n·m.
func (p *Plan) Len() int { return p.k * p.n * p.m }

// StageIters returns the pipeline iteration counts of the three DoubleBuf
// stages (the paper's iter = knm/b); zeros for other strategies.
func (p *Plan) StageIters() (s1, s2, s3 int) {
	if p.opts.Strategy != DoubleBuf {
		return 0, 0, 0
	}
	return p.k * p.n / p.rows1, p.mb * p.k / p.units2, p.n * p.mb / p.units3
}

// Transform computes dst = DFT_{k×n×m}(src) out of place; dst and src must
// each have length k·n·m and must not overlap. Unnormalized in both
// directions.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	if len(dst) != p.Len() || len(src) != p.Len() {
		return fmt.Errorf("fft3d: Transform lengths dst=%d src=%d, want %d",
			len(dst), len(src), p.Len())
	}
	if p.isClosed() {
		return fmt.Errorf("fft3d: plan closed")
	}
	switch p.opts.Strategy {
	case Reference:
		return p.reference(dst, src, sign)
	case Pencil:
		copy(dst, src)
		return p.pencilInPlace(dst, sign)
	case Slab:
		copy(dst, src)
		return p.slabInPlace(dst, sign)
	case DoubleBuf:
		return p.doubleBuf(dst, src, sign, 0)
	}
	return fmt.Errorf("fft3d: unknown strategy %v", p.opts.Strategy)
}

// Inverse computes the normalized inverse transform out of place:
// Transform(dst, src, fft1d.Inverse) followed by fft1d.Scale(dst, 1/Len()),
// bitwise. Plans with scaleInStage apply the scale in the last stage's
// compute leg instead, so dst is not swept a fourth time (wrong lengths
// fall through to Transform's error).
func (p *Plan) Inverse(dst, src []complex128) error {
	scale := 1 / float64(p.Len())
	if p.scaleInStage && len(dst) == p.Len() && len(src) == p.Len() {
		return p.doubleBuf(dst, src, fft1d.Inverse, scale)
	}
	if err := p.Transform(dst, src, fft1d.Inverse); err != nil {
		return err
	}
	fft1d.Scale(dst, scale)
	return nil
}

// Stats returns the whole-transform executor stats of the most recent
// DoubleBuf transform (zero value before the first, or for other
// strategies).
func (p *Plan) Stats() stagegraph.Stats {
	p.lock.Lock()
	defer p.lock.Unlock()
	return p.lastStats
}

// Obs returns the plan's telemetry collector (nil for non-DoubleBuf
// strategies). The collector is live: snapshots taken from it reflect every
// transform the plan has run.
func (p *Plan) Obs() *obs.Collector { return p.obs }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed.
func (p *Plan) Observability() obs.Snapshot { return p.obs.Snapshot() }

// Mu returns the effective cacheline block size the plan runs with
// (after defaulting).
func (p *Plan) Mu() int { return p.opts.Mu }

// destBytes is the per-stage destination footprint the store policy
// weighs against the LLC: every DoubleBuf stage writes the full k·n·m
// cube (16 B per complex element in either buffer format).
func (p *Plan) destBytes() int { return p.Len() * 16 }

// NonTemporalStages reports how many of the plan's cached stages
// currently route stores through the streaming tier (0 for non-DoubleBuf
// strategies).
func (p *Plan) NonTemporalStages() int {
	if p.opts.Strategy != DoubleBuf {
		return 0
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	nt := 0
	for i := range p.stages {
		if p.stages[i].NonTemporal {
			nt++
		}
	}
	return nt
}

// ReviseStorePolicy re-decides the per-stage store tier from the
// bandwidth telemetry collected so far (see fft2d.Plan.ReviseStorePolicy
// for the rules). Only StoreAuto DoubleBuf plans revise; returns the
// number of stages whose tier changed. Call between transforms, never
// concurrently with one.
func (p *Plan) ReviseStorePolicy() int {
	if p.opts.Strategy != DoubleBuf || p.opts.StorePolicy != stagegraph.StoreAuto {
		return 0
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return 0
	}
	return stagegraph.ReviseStores(p.stages, p.obs.Snapshot(),
		machine.HostLLCBytes(), p.destBytes())
}

// DescribeGraph renders the compiled stage graph the plan executes, with
// each stage's current store mode; empty for non-DoubleBuf strategies.
func (p *Plan) DescribeGraph() string {
	if p.opts.Strategy != DoubleBuf {
		return ""
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	return stagegraph.Describe(p.stages, !p.opts.Unfused)
}

// InPlace computes x = DFT_{k×n×m}(x).
func (p *Plan) InPlace(x []complex128, sign int) error {
	if len(x) != p.Len() {
		return fmt.Errorf("fft3d: InPlace length %d, want %d", len(x), p.Len())
	}
	switch p.opts.Strategy {
	case Pencil:
		return p.pencilInPlace(x, sign)
	case Slab:
		return p.slabInPlace(x, sign)
	default:
		tmp := make([]complex128, p.Len())
		if err := p.Transform(tmp, x, sign); err != nil {
			return err
		}
		copy(x, tmp)
		return nil
	}
}

// reference: three lane-driver stages, serial.
func (p *Plan) reference(dst, src []complex128, sign int) error {
	k, n, m := p.k, p.n, p.m
	p.planM.BatchInto(dst, src, k*n, sign)
	for z := 0; z < k; z++ {
		p.planN.InPlaceLanes(dst[z*n*m:(z+1)*n*m], m, sign)
	}
	p.planK.InPlaceLanes(dst, n*m, sign)
	return nil
}

// pencilInPlace: the non-overlapped baseline. Every stage reads and writes
// the full cube in place; stage 2 works at stride m within slabs and stage 3
// at stride n·m across the whole cube — the cache-hostile access pattern of
// a pencil-pencil library on a large transform.
func (p *Plan) pencilInPlace(x []complex128, sign int) error {
	k, n, m := p.k, p.n, p.m
	workers := p.opts.Workers
	parallelFor(workers, k*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			p.planM.InPlace(x[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			p.planN.InPlaceLanes(x[z*n*m:(z+1)*n*m], m, sign)
		}
	})
	// Stage 3: DFT_k ⊗ I_{nm}, parallelized over lane chunks via
	// gather/transform/scatter to keep the strided behaviour.
	parallelFor(workers, n*m, func(lo, hi int) {
		p.stridedLanes(x, p.planK, k, n*m, lo, hi, sign)
	})
	return nil
}

// slabInPlace: slab-pencil decomposition. Stages 1+2 are fused per z-slab
// (one pass over each slab, which on big-LLC machines stays cache resident),
// then the strided z-stage runs as in pencil. This reduces main-memory round
// trips from three to two (§II-B).
func (p *Plan) slabInPlace(x []complex128, sign int) error {
	k, n, m := p.k, p.n, p.m
	workers := p.opts.Workers
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			slab := x[z*n*m : (z+1)*n*m]
			for r := 0; r < n; r++ {
				p.planM.InPlace(slab[r*m:(r+1)*m], sign)
			}
			p.planN.InPlaceLanes(slab, m, sign)
		}
	})
	parallelFor(workers, n*m, func(lo, hi int) {
		p.stridedLanes(x, p.planK, k, n*m, lo, hi, sign)
	})
	return nil
}

// stridedLanes applies DFT_len ⊗ I over the lane range [lo, hi) of a cube
// whose lane stride is `stride`: it gathers the lanes, transforms them with
// the lane driver, and scatters them back.
func (p *Plan) stridedLanes(x []complex128, plan *fft1d.Plan, length, stride, lo, hi, sign int) {
	w := hi - lo
	if w <= 0 {
		return
	}
	tmp := make([]complex128, length*w)
	out := make([]complex128, length*w)
	for z := 0; z < length; z++ {
		copy(tmp[z*w:(z+1)*w], x[z*stride+lo:z*stride+hi])
	}
	plan.Lanes(out, tmp, w, sign)
	for z := 0; z < length; z++ {
		copy(x[z*stride+lo:z*stride+hi], out[z*w:(z+1)*w])
	}
}

func parallelFor(workers, total int, f func(lo, hi int)) {
	if workers <= 1 || total <= 1 {
		f(0, total)
		return
	}
	if workers > total {
		workers = total
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			lo, hi := pipeline.Partition(total, w, workers)
			f(lo, hi)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// minStageIters is the pipeline-depth floor (see fft2d.minStageIters).
const minStageIters = 9

// blockCap combines the buffer-capacity block limit with the pipeline-depth
// floor for a stage whose block loop has `extent` iterations.
func blockCap(extent, bufBlocks int) int {
	c := maxInt(1, bufBlocks)
	if byDepth := extent / minStageIters; byDepth >= 1 && byDepth < c {
		c = byDepth
	}
	return c
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
