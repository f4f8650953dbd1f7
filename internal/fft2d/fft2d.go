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
	// SplitFormat runs the DoubleBuf compute stages in block-interleaved
	// (split) format with fused format changes in the first load and last
	// store, as in §IV-A.
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
	// for the DoubleBuf stages. The default StoreAuto picks streaming
	// stores when the transform's per-stage destination footprint exceeds
	// half the host LLC; ReviseStorePolicy can re-decide from telemetry.
	StorePolicy stagegraph.StorePolicy
	// Tracer records pipeline events for schedule verification.
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

// Plan is a reusable 2D FFT execution plan for a fixed n×m size.
type Plan struct {
	n, m int
	opts Options

	rowPlan *fft1d.Plan // DFT_m
	colPlan *fft1d.Plan // DFT_n

	// DoubleBuf state. The work arrays, double buffer, cached stage graph
	// and persistent executor are shared scratch, so DoubleBuf transforms
	// serialize on lock (the plan stays safe for concurrent use;
	// independent plans run fully in parallel). The stage graph and its
	// compiled schedule are built once here; per call only the src/dst
	// endpoints and curSign are patched.
	mb      int // m/μ
	rows1   int // rows per stage-1 block
	xbs2    int // xb-rows per stage-2 block
	work    []complex128
	workRe  []float64
	workIm  []float64
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

// NewPlan validates the size and options and precomputes 1D sub-plans.
func NewPlan(n, m int, opts Options) (*Plan, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("fft2d: invalid size %dx%d", n, m)
	}
	opts = opts.withDefaults()
	switch opts.Radix {
	case 0, 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("fft2d: radix must be 0, 2, 4, 8 or 16, got %d", opts.Radix)
	}
	p := &Plan{n: n, m: m, opts: opts,
		rowPlan: fft1d.NewPlanRadix(m, opts.Radix), colPlan: fft1d.NewPlanRadix(n, opts.Radix)}
	if opts.Strategy == DoubleBuf {
		if opts.Mu == 0 {
			opts.Mu = machine.PreferredMu(m)
			p.opts.Mu = opts.Mu
		}
		mu := opts.Mu
		if mu < 1 {
			return nil, fmt.Errorf("fft2d: μ=%d, need ≥ 1", mu)
		}
		if m%mu != 0 {
			return nil, fmt.Errorf("fft2d: μ=%d does not divide m=%d", mu, m)
		}
		p.mb = m / mu
		// Stage 1 blocks: whole rows; stage 2 blocks: whole xb-rows of
		// the transposed block matrix. Both iteration counts must divide
		// their loop extent so the pipeline sees uniform blocks. Beyond
		// the buffer-capacity cap, blocks are kept small enough that each
		// stage gets at least minStageIters pipeline iterations: the fused
		// steady-state occupancy of an S-stage graph with I total
		// iterations is I/(I+S+1), so too-few, too-large blocks leave the
		// data workers idle at the ramp and drain even when every byte
		// still moves exactly once.
		p.rows1 = largestDivisorAtMost(n, blockCap(n, opts.BufferElems/m))
		p.xbs2 = largestDivisorAtMost(p.mb, blockCap(p.mb, opts.BufferElems/(n*mu)))
		b := max(p.rows1*m, p.xbs2*n*mu)
		if opts.SplitFormat {
			p.workRe = make([]float64, n*m)
			p.workIm = make([]float64, n*m)
		} else {
			p.work = make([]complex128, n*m)
		}
		p.bufs = stagegraph.NewBuffers(b, opts.SplitFormat, false)
		p.stages = p.buildStages()
		// Scaling a stage-2 block in its compute leg is the same fft1d.Scale
		// on the same values a pass over dst would apply. Ahead of a folded
		// butterfly that holds only when the scale is a power of two (exact,
		// so it commutes with the butterfly's adds); other folded shapes,
		// and split buffers, keep the pass.
		p.scaleInStage = !opts.SplitFormat && (p.stages[1].StoreRadix == 0 || (n*m)&(n*m-1) == 0)
		stagegraph.ApplyStorePolicy(p.stages,
			opts.StorePolicy.Decide(p.destBytes(), machine.HostLLCBytes()))
		p.sched = stagegraph.Compile(p.stages, !opts.Unfused)
		names := make([]string, len(p.stages))
		for i := range p.stages {
			names[i] = p.stages[i].Name
		}
		p.obs = obs.NewCollector(opts.DataWorkers, opts.ComputeWorkers, names)
		_, p.obsUnreg = obs.Default.Register(fmt.Sprintf("fft2d/%dx%d", n, m), p.obs)
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

// N and M return the plan's dimensions (n rows × m columns).
func (p *Plan) N() int { return p.n }

// M returns the row length.
func (p *Plan) M() int { return p.m }

// Stage1Iters returns the number of pipeline blocks in the first DoubleBuf
// stage (the paper's iter = mn/b); 0 for other strategies.
func (p *Plan) Stage1Iters() int {
	if p.opts.Strategy != DoubleBuf {
		return 0
	}
	return p.n / p.rows1
}

// Transform computes dst = DFT_{n×m}(src) out of place; dst and src must
// each have length n·m and must not overlap. The transform is unnormalized;
// Inverse is the normalized round-trip partner of a forward Transform.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	if len(dst) != p.n*p.m || len(src) != p.n*p.m {
		return fmt.Errorf("fft2d: Transform lengths dst=%d src=%d, want %d",
			len(dst), len(src), p.n*p.m)
	}
	if p.isClosed() {
		return fmt.Errorf("fft2d: plan closed")
	}
	switch p.opts.Strategy {
	case Reference:
		return p.reference(dst, src, sign)
	case Pencil:
		return p.pencil(dst, src, sign)
	case DoubleBuf:
		return p.doubleBuf(dst, src, sign, 0)
	}
	return fmt.Errorf("fft2d: unknown strategy %v", p.opts.Strategy)
}

// Inverse computes the normalized inverse transform out of place:
// Transform(dst, src, fft1d.Inverse) followed by fft1d.Scale(dst, 1/(n·m)),
// bitwise. Plans with scaleInStage apply the scale in the last stage's
// compute leg instead, so dst is not swept a third time (wrong lengths
// fall through to Transform's error).
func (p *Plan) Inverse(dst, src []complex128) error {
	scale := 1 / float64(p.n*p.m)
	if p.scaleInStage && len(dst) == p.n*p.m && len(src) == p.n*p.m {
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
// (after defaulting; 0 for plans built before defaulting, i.e. never).
func (p *Plan) Mu() int { return p.opts.Mu }

// destBytes is the per-stage destination footprint the store policy
// weighs against the LLC: every DoubleBuf stage writes the full n·m
// matrix (16 B per complex element in either buffer format).
func (p *Plan) destBytes() int { return p.n * p.m * 16 }

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
// bandwidth telemetry collected so far: StoreAuto plans whose measured
// store bandwidth runs below half the roofline (or whose data time
// diverges ≥1.5× from the perf model) on a spilling footprint switch
// that stage to streaming stores; stages whose footprint fits in cache
// revert. Forced policies (StoreRegular/StoreNonTemporal) never revise.
// It returns the number of stages whose tier changed. Call it between
// transforms — typically after a warmup run — never concurrently with
// one.
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
func (p *Plan) reference(dst, src []complex128, sign int) error {
	n, m := p.n, p.m
	p.rowPlan.BatchInto(dst, src, n, sign)
	p.colPlan.InPlaceLanes(dst, m, sign)
	return nil
}

// pencil: the non-overlapped baseline. Stage 1 transforms rows in place;
// stage 2 gathers each column at stride m, transforms it, and scatters it
// back — the cache-hostile access pattern of a pencil-pencil library.
func (p *Plan) pencil(dst, src []complex128, sign int) error {
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
	return nil
}

// parallelFor splits [0, total) across workers goroutines.
func parallelFor(workers, total int, f func(lo, hi int)) {
	if workers <= 1 || total <= 1 {
		f(0, total)
		return
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

// minStageIters is the pipeline-depth floor: block sizes are shrunk until
// every stage runs at least this many iterations (when the extent allows),
// keeping the fused schedule's steady-state occupancy I/(I+S+1) above ~0.9
// for two-stage graphs.
const minStageIters = 9

// blockCap combines the buffer-capacity block limit with the pipeline-depth
// floor for a stage whose block loop has `extent` iterations of unit blocks.
func blockCap(extent, bufBlocks int) int {
	c := max(1, bufBlocks)
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
