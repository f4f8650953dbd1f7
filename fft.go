// Package repro is a bandwidth-efficient FFT library for large
// multi-dimensional transforms, reproducing Popovici, Low and Franchetti,
// "Large Bandwidth-Efficient FFTs on Multicore and Multi-Socket Systems"
// (IPDPS 2018).
//
// Large 2D/3D FFTs are memory bound: their strided stages waste cache and
// DRAM bandwidth. This library implements the paper's remedy — streaming
// blocks through a cache-resident buffer, computing contiguous FFT pencils
// on them, and folding a cacheline-blocked transpose/rotation into every
// store so each stage again sees unit-stride data. One lane per core runs
// its share of every stage's blocks load → compute → store (the paper
// splits those roles across a core's two hyperthreads):
//
//	plan, _ := repro.NewFFT3D(256, 256, 256)
//	dst := make([]complex128, plan.Len())
//	_ = plan.Forward(dst, src)
//
// The paper's five evaluation machines and the performance model that
// regenerates its figures are available too; cmd/fftbench prints them, and
// times the pencil-pencil and slab-pencil baselines the paper compares
// against (internal/bench) beside the plans built here.
package repro

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/machine"
)

// Option customizes a plan.
type Option func(*core.Config) error

// WithBufferElems sets the pipeline block size b in complex elements (each
// lane keeps one block of this size). The default is chosen by the plan
// package from the host's L2 (machine.PreferredBufferElems). The paper
// sizes its double buffer at half the last-level cache;
// WithMachineDefaults applies that rule. NewFFT1D has no
// pipeline and ignores it.
func WithBufferElems(b int) Option {
	return func(c *core.Config) error {
		if b < 1 {
			return fmt.Errorf("repro: buffer must be ≥ 1 element, got %d", b)
		}
		c.BufferElems = b
		return nil
	}
}

// WithCacheline sets μ, the cacheline granularity in complex elements used
// by the blocked rotations. The default is the largest of 8, 4, 2 dividing
// the row length m (8 = two 64-byte lines, the fastest measured rotation);
// an explicit μ must divide m.
func WithCacheline(mu int) Option {
	return func(c *core.Config) error {
		if mu < 1 {
			return fmt.Errorf("repro: μ must be ≥ 1, got %d", mu)
		}
		c.Mu = mu
		return nil
	}
}

// WithMachineDefaults applies the paper's parameter rules (buffer = LLC/2,
// μ = cacheline, one lane per core) for one of the five described
// evaluation machines; see Machines for the names.
func WithMachineDefaults(name string) Option {
	return func(c *core.Config) error {
		m, err := machine.ByName(name)
		if err != nil {
			return err
		}
		*c = core.ForMachine(m)
		return nil
	}
}

// WithRoofline sets the STREAM-peak bandwidth (GB/s) the plan's telemetry
// normalizes per-stage bandwidth against, so Observability reports
// FracPeak on this host rather than a paper machine. Pass a measured
// figure (e.g. from internal/stream's copy benchmark); 0 leaves FracPeak
// unreported.
func WithRoofline(gbs float64) Option {
	return func(c *core.Config) error {
		if gbs < 0 {
			return fmt.Errorf("repro: roofline must be ≥ 0 GB/s, got %g", gbs)
		}
		c.RooflineGBs = gbs
		return nil
	}
}

func resolve(opts []Option) (core.Config, error) {
	cfg := core.Default()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// handle is what every handle kind holds: its core plan, the SharedPlans
// pin it releases instead of closing the plan, and the flag that closes it
// once.
type handle struct {
	p       *core.Plan
	release func()
	closed  atomic.Bool
}

// build resolves opts and builds the handle's plan.
func (h *handle) build(opts []Option, real bool, dims ...int) error {
	cfg, err := resolve(opts)
	if err != nil {
		return err
	}
	h.p, err = core.NewPlan(cfg, real, dims...)
	return err
}

// run runs op on the plan, or returns ErrClosed after Close: a shared plan
// may since have been evicted and torn down.
func (h *handle) run(op func(p *core.Plan) error) error {
	if h.closed.Load() {
		return ErrClosed
	}
	return op(h.p)
}

// Close retires the plan. A plan holds no lane and no work array between
// transforms — each transform leases them from the process's pool — so
// Close only unregisters its telemetry; closing the last open plan lets
// the pool release its parked lanes and arrays. Optional — plans dropped
// without Close are closed by a finalizer — idempotent and safe to call
// concurrently; later transforms return ErrClosed. For handles from a
// SharedPlans pool, Close releases the cache pin instead; the shared plan
// itself closes when it is evicted and its last user has released it.
func (h *handle) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	if h.release != nil {
		h.release()
		return
	}
	h.p.Close()
}

// Observability returns the plan's cumulative bandwidth-accounting
// snapshot: blocks run and wall time, per-stage bytes loaded/stored,
// effective GB/s and fraction of the roofline, per-lane op time and
// stage-barrier wait; a real plan's merges its forward and inverse
// pipelines. The snapshot accumulates over every transform the plan has
// run. A complex 1D plan has no pipeline stages to account and returns the
// zero value.
func (h *handle) Observability() Observability { return h.p.Observability() }

// FFT3D is a reusable plan for k×n×m cubes (row-major, x fastest).
type FFT3D struct{ handle }

// NewFFT3D builds a 3D plan.
func NewFFT3D(k, n, m int, opts ...Option) (*FFT3D, error) {
	f := new(FFT3D)
	if err := f.build(opts, false, k, n, m); err != nil {
		return nil, err
	}
	return f, nil
}

// Forward computes the unnormalized forward DFT out of place; dst and src
// must each have length Len() and must not overlap.
// A dst whose pages are not yet resident (a fresh allocation) and that the
// plan stores into past the cache is pre-faulted before the transform runs;
// this changes no byte, and dst's contents are overwritten anyway.
func (f *FFT3D) Forward(dst, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.Transform(dst, src, fft1d.Forward) })
}

// Inverse computes the normalized inverse DFT out of place: Inverse ∘
// Forward is the identity.
func (f *FFT3D) Inverse(dst, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.Inverse(dst, src) })
}

// InPlace computes the unnormalized forward DFT in place.
func (f *FFT3D) InPlace(x []complex128) error {
	return f.run(func(p *core.Plan) error { return p.InPlace(x, fft1d.Forward) })
}

// ForwardMany transforms count cubes stored back-to-back (the "howmany"
// interface): dst and src must each hold count·Len() elements. Planning
// and buffer allocation are amortized over the batch.
func (f *FFT3D) ForwardMany(dst, src []complex128, count int) error {
	return f.run(func(p *core.Plan) error { return p.TransformMany(dst, src, count, fft1d.Forward) })
}

// Len returns the total element count k·n·m.
func (f *FFT3D) Len() int { return f.p.Len() }

// Dims returns (k, n, m).
func (f *FFT3D) Dims() (k, n, m int) {
	d := f.p.Dims()
	return d[0], d[1], d[2]
}

// DescribeGraph renders the compiled stage graph the plan executes (stage
// geometry and the fused schedule).
func (f *FFT3D) DescribeGraph() string { return f.p.DescribeGraph() }

// FFT2D is a reusable plan for n×m matrices (row-major).
type FFT2D struct{ handle }

// NewFFT2D builds a 2D plan.
func NewFFT2D(n, m int, opts ...Option) (*FFT2D, error) {
	f := new(FFT2D)
	if err := f.build(opts, false, n, m); err != nil {
		return nil, err
	}
	return f, nil
}

// Forward computes the unnormalized forward DFT out of place.
// A dst whose pages are not yet resident (a fresh allocation) and that the
// plan stores into past the cache is pre-faulted before the transform runs;
// this changes no byte, and dst's contents are overwritten anyway.
func (f *FFT2D) Forward(dst, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.Transform(dst, src, fft1d.Forward) })
}

// Inverse computes the normalized inverse DFT out of place.
func (f *FFT2D) Inverse(dst, src []complex128) error {
	return f.run(func(p *core.Plan) error { return p.Inverse(dst, src) })
}

// InPlace computes the unnormalized forward DFT in place.
func (f *FFT2D) InPlace(x []complex128) error {
	return f.run(func(p *core.Plan) error { return p.InPlace(x, fft1d.Forward) })
}

// Len returns n·m.
func (f *FFT2D) Len() int { return f.p.Len() }

// Dims returns (n, m).
func (f *FFT2D) Dims() (n, m int) {
	d := f.p.Dims()
	return d[0], d[1]
}

// DescribeGraph renders the compiled stage graph the plan executes.
func (f *FFT2D) DescribeGraph() string { return f.p.DescribeGraph() }

// Observability is a cumulative telemetry snapshot: per-stage bytes and
// effective bandwidth against the configured roofline, overlap occupancy,
// barrier-wait time and the plan's build lines. Obtain one from
// a plan's Observability method; serialize it with encoding/json for
// dashboards.
type Observability = core.Observability

// MachineInfo summarizes one of the paper's evaluation systems.
type MachineInfo struct {
	Name      string
	Vendor    string
	Sockets   int
	Threads   int
	LLCBytes  int
	DRAMGB    int
	StreamGBs float64
	LinkGBs   float64
}

// Machines lists the five systems from the paper's §V with their published
// parameters; pass a Name to WithMachineDefaults.
func Machines() []MachineInfo {
	var out []MachineInfo
	for _, m := range machine.All {
		out = append(out, MachineInfo{
			Name: m.Name, Vendor: m.Vendor, Sockets: m.Sockets,
			Threads: m.Threads(), LLCBytes: m.LLC().SizeBytes,
			DRAMGB: m.DRAMGB, StreamGBs: m.StreamGBs, LinkGBs: m.LinkGBs,
		})
	}
	return out
}
