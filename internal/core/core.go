// Package core ties the paper's pieces together: it assigns half the
// threads to soft-DMA data workers and half to compute workers (§IV),
// derives the paper's b = LLC/2 and μ = one cacheline for a described
// machine (ForMachine), and builds the plans of internal/fft2d,
// internal/fft3d and internal/rfft from the result. The kernel-shape
// defaults — μ and the buffer size — are not restated here: a zero field
// means the plan package resolves it, from the measured profile, exactly as
// for a caller that passes its zero-value Options. There is one compute
// format, complex-interleaved: the paper's §IV-A block-interleaved format
// was implemented, measured 1.3–1.9× behind it in every cell (EXPERIMENTS.md
// "Plan defaults and whole-line streaming stores") and retired; commit
// f193575 is the last that contains it.
//
// The root repro package re-exports this as the public API.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/rfft"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// Strategy names accepted by Config.Strategy.
const (
	StrategyReference = "reference"
	StrategyPencil    = "pencil"
	StrategySlab      = "slab"
	StrategyDoubleBuf = "doublebuf"
)

// Config is the execution configuration handed to the plan packages.
type Config struct {
	Strategy string
	// Mu and BufferElems are the cacheline block and per-half pipeline
	// block sizes in complex elements. Zero — what Default returns — lets
	// the plan package decide (machine.PreferredMu for the row length,
	// machine.PreferredBufferElems for the host's L2). The complex 1D plan
	// reads neither, nor the worker counts or StageFusion: only Radix.
	Mu             int
	BufferElems    int
	DataWorkers    int
	ComputeWorkers int
	Workers        int
	// Radix caps the Stockham stage radix of power-of-two 1D sub-plans
	// (0 = default 16, the fused two-stage codelets; 2/4/8 select the
	// higher-pass-count mixes).
	Radix int
	// StageFusion runs every transform as one fused stage graph (steady
	// state flows through stage boundaries; one pipeline drain per
	// transform). Default() and ForMachine() enable it; disable for the
	// stage-at-a-time A/B baseline.
	StageFusion bool
	// MachineName, when set to a name internal/machine resolves, attaches
	// that machine's perfmodel prediction to every plan's telemetry so
	// snapshots report measured/predicted divergence. ForMachine sets it.
	MachineName string
	// RooflineGBs is the STREAM peak the telemetry normalizes per-stage
	// bandwidth against. Zero falls back to MachineName's STREAM figure;
	// both zero leaves FracPeak unreported.
	RooflineGBs float64
	Tracer      *trace.Recorder
}

// Default returns the configuration this host would use: the paper's
// half-and-half worker assignment over the host's CPU count, with μ and the
// buffer size left zero for the plan packages to resolve — so a plan built from Default() is the plan their zero-value Options
// build, which is the one the benchmarks measure.
func Default() Config {
	threads := runtime.GOMAXPROCS(0)
	pd := threads / 2
	if pd < 1 {
		pd = 1
	}
	return Config{
		Strategy:       StrategyDoubleBuf,
		DataWorkers:    pd,
		ComputeWorkers: pd,
		Workers:        threads,
		StageFusion:    true,
	}
}

// ForMachine returns the paper's configuration for one of the described
// machines: b = LLC/2 over two halves, μ = cacheline, p_d = p_c = threads/2
// per socket.
func ForMachine(m machine.Machine) Config {
	pairs := m.Threads() / 2
	if pairs < 1 {
		pairs = 1
	}
	return Config{
		Strategy:       StrategyDoubleBuf,
		Mu:             m.LLC().LineBytes / 16,
		BufferElems:    m.DefaultBufferElems(),
		DataWorkers:    pairs,
		ComputeWorkers: pairs,
		Workers:        m.Threads(),
		StageFusion:    true,
		MachineName:    m.Name,
		RooflineGBs:    m.StreamGBs,
	}
}

// Roofline resolves the STREAM peak the telemetry should normalize
// against: the explicit figure if set, else the named machine's.
func (c Config) Roofline() float64 {
	if c.RooflineGBs > 0 {
		return c.RooflineGBs
	}
	if c.MachineName != "" {
		if m, err := machine.Lookup(c.MachineName); err == nil {
			return m.StreamGBs
		}
	}
	return 0
}

// model returns the perfmodel for the configured machine, or nil when no
// machine is named (predictions are then simply not attached).
func (c Config) model() *perfmodel.Model {
	if c.MachineName == "" {
		return nil
	}
	m, err := machine.Lookup(c.MachineName)
	if err != nil {
		return nil
	}
	mo := perfmodel.New(m)
	mo.Fused = c.StageFusion
	return mo
}

func (c Config) fft3dOptions() (fft3d.Options, error) {
	s, err := strategy3D(c.Strategy)
	if err != nil {
		return fft3d.Options{}, err
	}
	return fft3d.Options{
		Strategy: s, Mu: c.Mu, BufferElems: c.BufferElems,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers,
		Workers: c.Workers, Radix: c.Radix,
		Unfused: !c.StageFusion, Tracer: c.Tracer,
	}, nil
}

func (c Config) fft2dOptions() (fft2d.Options, error) {
	s, err := strategy2D(c.Strategy)
	if err != nil {
		return fft2d.Options{}, err
	}
	return fft2d.Options{
		Strategy: s, Mu: c.Mu, BufferElems: c.BufferElems,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers,
		Workers: c.Workers, Radix: c.Radix,
		Unfused: !c.StageFusion, Tracer: c.Tracer,
	}, nil
}

func strategy3D(name string) (fft3d.Strategy, error) {
	switch name {
	case StrategyReference:
		return fft3d.Reference, nil
	case StrategyPencil:
		return fft3d.Pencil, nil
	case StrategySlab:
		return fft3d.Slab, nil
	case StrategyDoubleBuf, "":
		return fft3d.DoubleBuf, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

func strategy2D(name string) (fft2d.Strategy, error) {
	switch name {
	case StrategyReference:
		return fft2d.Reference, nil
	case StrategyPencil:
		return fft2d.Pencil, nil
	case StrategySlab:
		// 2D has no slab variant; pencil is the closest baseline.
		return fft2d.Pencil, nil
	case StrategyDoubleBuf, "":
		return fft2d.DoubleBuf, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// Plan3D is a sized 3D FFT executor.
type Plan3D struct {
	plan *fft3d.Plan
	cfg  Config
}

// NewPlan3D builds a 3D plan for a k×n×m cube under cfg.
func NewPlan3D(k, n, m int, cfg Config) (*Plan3D, error) {
	opts, err := cfg.fft3dOptions()
	if err != nil {
		return nil, err
	}
	p, err := fft3d.NewPlan(k, n, m, opts)
	if err != nil {
		return nil, err
	}
	if col := p.Obs(); col != nil {
		col.SetRoofline(cfg.Roofline())
		if mo := cfg.model(); mo != nil {
			col.SetPredicted(mo.DoubleBuf3D(k, n, m, 1).StagePredictions())
		}
	}
	return &Plan3D{plan: p, cfg: cfg}, nil
}

// Forward computes the unnormalized forward transform out of place.
func (p *Plan3D) Forward(dst, src []complex128) error {
	return p.plan.Transform(dst, src, fft1d.Forward)
}

// Inverse computes the normalized inverse transform out of place (a
// Forward followed by Inverse returns the input).
func (p *Plan3D) Inverse(dst, src []complex128) error {
	return p.plan.Inverse(dst, src)
}

// InPlace computes the unnormalized forward transform in place.
func (p *Plan3D) InPlace(x []complex128) error {
	return p.plan.InPlace(x, fft1d.Forward)
}

// ForwardMany transforms count back-to-back cubes out of place.
func (p *Plan3D) ForwardMany(dst, src []complex128, count int) error {
	return p.plan.TransformMany(dst, src, count, fft1d.Forward)
}

// Close releases the persistent executor workers (a no-op for strategies
// without one). It is idempotent and concurrency-safe — a Close racing a
// Transform waits for it, and excess Closes are absorbed by the underlying
// plan. Plans dropped without Close are reclaimed by a finalizer.
func (p *Plan3D) Close() {
	p.plan.Close()
}

// Len returns k·n·m.
func (p *Plan3D) Len() int { return p.plan.Len() }

// Dims returns (k, n, m).
func (p *Plan3D) Dims() (int, int, int) { return p.plan.Dims() }

// Plan2D is a sized 2D FFT executor.
type Plan2D struct {
	plan *fft2d.Plan
	n, m int
}

// NewPlan2D builds a 2D plan for an n×m matrix under cfg.
func NewPlan2D(n, m int, cfg Config) (*Plan2D, error) {
	opts, err := cfg.fft2dOptions()
	if err != nil {
		return nil, err
	}
	p, err := fft2d.NewPlan(n, m, opts)
	if err != nil {
		return nil, err
	}
	if col := p.Obs(); col != nil {
		col.SetRoofline(cfg.Roofline())
		if mo := cfg.model(); mo != nil {
			col.SetPredicted(mo.DoubleBuf2D(n, m).StagePredictions())
		}
	}
	return &Plan2D{plan: p, n: n, m: m}, nil
}

// Forward computes the unnormalized forward transform out of place.
func (p *Plan2D) Forward(dst, src []complex128) error {
	return p.plan.Transform(dst, src, fft1d.Forward)
}

// Inverse computes the normalized inverse transform out of place.
func (p *Plan2D) Inverse(dst, src []complex128) error {
	return p.plan.Inverse(dst, src)
}

// InPlace computes the unnormalized forward transform in place.
func (p *Plan2D) InPlace(x []complex128) error {
	return p.plan.InPlace(x, fft1d.Forward)
}

// Close releases the persistent executor workers. See Plan3D.Close.
func (p *Plan2D) Close() {
	p.plan.Close()
}

// Len returns n·m.
func (p *Plan2D) Len() int { return p.n * p.m }

// Dims returns (n, m).
func (p *Plan2D) Dims() (int, int) { return p.n, p.m }

func (c Config) rfftOptions() rfft.Options {
	// Real plans always run the stage-graph pipeline; Strategy and Workers
	// don't apply.
	return rfft.Options{
		Mu: c.Mu, BufferElems: c.BufferElems,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers,
		Radix: c.Radix, Unfused: !c.StageFusion, Tracer: c.Tracer,
	}
}

// RealPlan1D is a sized, batched real-input (r2c/c2r) 1D FFT executor.
type RealPlan1D struct {
	plan *rfft.Plan1D
}

// NewRealPlan1D builds a real-input plan for even length n under cfg.
func NewRealPlan1D(n int, cfg Config) (*RealPlan1D, error) {
	p, err := rfft.NewPlan1D(n, cfg.rfftOptions())
	if err != nil {
		return nil, err
	}
	p.SetRoofline(cfg.Roofline())
	return &RealPlan1D{plan: p}, nil
}

// Forward computes the unnormalized half spectrum X[0…n/2] of a real row.
func (p *RealPlan1D) Forward(dst []complex128, src []float64) error {
	return p.plan.Forward(dst, src)
}

// ForwardBatch transforms count contiguously packed real rows at once.
func (p *RealPlan1D) ForwardBatch(dst []complex128, src []float64, count int) error {
	return p.plan.ForwardBatch(dst, src, count)
}

// Inverse reconstructs the real row (normalized; Inverse ∘ Forward = id).
// The imaginary parts of the self-conjugate bins src[0] and src[n/2] are
// forced to zero; src is not modified.
func (p *RealPlan1D) Inverse(dst []float64, src []complex128) error {
	return p.plan.Inverse(dst, src)
}

// InverseBatch reconstructs count contiguously packed real rows at once.
func (p *RealPlan1D) InverseBatch(dst []float64, src []complex128, count int) error {
	return p.plan.InverseBatch(dst, src, count)
}

// N returns the real length; SpectrumLen returns n/2+1.
func (p *RealPlan1D) N() int { return p.plan.N() }

// SpectrumLen returns n/2+1.
func (p *RealPlan1D) SpectrumLen() int { return p.plan.SpectrumLen() }

// Close releases the persistent executor workers. See Plan3D.Close.
func (p *RealPlan1D) Close() {
	p.plan.Close()
}

// Observability returns the plan's merged forward+inverse telemetry.
func (p *RealPlan1D) Observability() Observability { return p.plan.Observability() }

// Stats returns the executor statistics of the most recent transform.
func (p *RealPlan1D) Stats() Stats { return p.plan.Stats() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *RealPlan1D) DescribeGraph() string { return p.plan.DescribeGraph() }

// RealPlan2D is a sized real-input (r2c/c2r) 2D FFT executor.
type RealPlan2D struct {
	plan *rfft.Plan2D
}

// NewRealPlan2D builds a real-input plan for an n×m grid (m even) under cfg.
func NewRealPlan2D(n, m int, cfg Config) (*RealPlan2D, error) {
	p, err := rfft.NewPlan2D(n, m, cfg.rfftOptions())
	if err != nil {
		return nil, err
	}
	p.SetRoofline(cfg.Roofline())
	return &RealPlan2D{plan: p}, nil
}

// Forward computes the unnormalized half spectrum (n×(m/2+1)).
func (p *RealPlan2D) Forward(dst []complex128, src []float64) error {
	return p.plan.Forward(dst, src)
}

// Inverse reconstructs the real grid (normalized); src is not modified.
func (p *RealPlan2D) Inverse(dst []float64, src []complex128) error {
	return p.plan.Inverse(dst, src)
}

// Dims returns (n, m).
func (p *RealPlan2D) Dims() (int, int) { return p.plan.Dims() }

// SpectrumLen returns n·(m/2+1); RealLen returns n·m.
func (p *RealPlan2D) SpectrumLen() int { return p.plan.SpectrumLen() }

// RealLen returns n·m.
func (p *RealPlan2D) RealLen() int { return p.plan.RealLen() }

// Close releases the persistent executor workers. See Plan3D.Close.
func (p *RealPlan2D) Close() {
	p.plan.Close()
}

// Observability returns the plan's merged forward+inverse telemetry.
func (p *RealPlan2D) Observability() Observability { return p.plan.Observability() }

// Stats returns the executor statistics of the most recent transform.
func (p *RealPlan2D) Stats() Stats { return p.plan.Stats() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *RealPlan2D) DescribeGraph() string { return p.plan.DescribeGraph() }

// RealPlan3D is a sized real-input (r2c/c2r) 3D FFT executor.
type RealPlan3D struct {
	plan *rfft.Plan3D
}

// NewRealPlan3D builds a real-input plan for a k×n×m cube (m even) under cfg.
func NewRealPlan3D(k, n, m int, cfg Config) (*RealPlan3D, error) {
	p, err := rfft.NewPlan3D(k, n, m, cfg.rfftOptions())
	if err != nil {
		return nil, err
	}
	p.SetRoofline(cfg.Roofline())
	return &RealPlan3D{plan: p}, nil
}

// Forward computes the unnormalized half spectrum (k×n×(m/2+1)).
func (p *RealPlan3D) Forward(dst []complex128, src []float64) error {
	return p.plan.Forward(dst, src)
}

// Inverse reconstructs the real cube (normalized); src is not modified.
func (p *RealPlan3D) Inverse(dst []float64, src []complex128) error {
	return p.plan.Inverse(dst, src)
}

// Dims returns (k, n, m).
func (p *RealPlan3D) Dims() (int, int, int) { return p.plan.Dims() }

// SpectrumLen returns k·n·(m/2+1); RealLen returns k·n·m.
func (p *RealPlan3D) SpectrumLen() int { return p.plan.SpectrumLen() }

// RealLen returns k·n·m.
func (p *RealPlan3D) RealLen() int { return p.plan.RealLen() }

// Close releases the persistent executor workers. See Plan3D.Close.
func (p *RealPlan3D) Close() {
	p.plan.Close()
}

// Observability returns the plan's merged forward+inverse telemetry.
func (p *RealPlan3D) Observability() Observability { return p.plan.Observability() }

// Stats returns the executor statistics of the most recent transform.
func (p *RealPlan3D) Stats() Stats { return p.plan.Stats() }

// DescribeGraph renders the compiled forward and inverse stage graphs.
func (p *RealPlan3D) DescribeGraph() string { return p.plan.DescribeGraph() }

// Stats is the whole-transform executor statistics of a DoubleBuf plan:
// total pipeline steps, aggregate data-mover and compute time, and the
// fraction of data time hidden behind compute.
type Stats = stagegraph.Stats

// Observability is the cumulative bandwidth-accounting snapshot of a plan:
// per-stage bytes, effective GB/s, fraction of the roofline, overlap
// occupancy, barrier wait, and perfmodel divergence.
type Observability = obs.Snapshot

// Observability returns the plan's cumulative telemetry snapshot (zero
// value for strategies without a stage-graph executor).
func (p *Plan3D) Observability() Observability { return p.plan.Observability() }

// Observability returns the plan's cumulative telemetry snapshot (zero
// value for strategies without a stage-graph executor).
func (p *Plan2D) Observability() Observability { return p.plan.Observability() }

// Stats returns the executor statistics of the most recent DoubleBuf
// transform (zero value before the first, or for other strategies).
func (p *Plan3D) Stats() Stats { return p.plan.Stats() }

// DescribeGraph renders the compiled stage graph the plan executes; empty
// for non-DoubleBuf strategies.
func (p *Plan3D) DescribeGraph() string { return p.plan.DescribeGraph() }

// Stats returns the executor statistics of the most recent DoubleBuf
// transform (zero value before the first, or for other strategies).
func (p *Plan2D) Stats() Stats { return p.plan.Stats() }

// DescribeGraph renders the compiled stage graph the plan executes; empty
// for non-DoubleBuf strategies.
func (p *Plan2D) DescribeGraph() string { return p.plan.DescribeGraph() }
