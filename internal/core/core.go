// Package core declares the plan configuration — once — and the complex
// 2D/3D plan. The paper fixes a plan by three rules (§IV): b = LLC/2, μ = one
// cacheline, p_d = p_c = threads/2. Config carries those and the telemetry
// hooks, and nothing else: the radix chain, fusion, the store fold and the
// store tier are not configuration (EXPERIMENTS.md "Ablation axes, swept
// once"; their oracle variants are stagegraph.Ablation, which only a test
// installs). Default and ForMachine apply the worker rule (and, for a
// described machine, the other two); internal/fft2d, internal/fft3d and
// internal/rfft take a Config as it is and hand its fields to the one graph
// builder and the one runner through Pencils and NewRunner below. The zero
// Config is the product: the paper's double-buffer pipeline, fused,
// store-folded, store tier chosen from the footprint, with μ and the buffer
// size resolved by the builder from the measured profile. Plan is what
// fft2d.NewPlan and fft3d.NewPlan return: the same pipeline wrapper at
// either rank.
//
// There is one compute format, complex-interleaved: the paper's §IV-A
// block-interleaved format was implemented, measured 1.3–1.9× behind it in
// every cell (EXPERIMENTS.md "Plan defaults and whole-line streaming
// stores") and retired; commit f193575 is the last that contains it.
package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// Stats and Observability are what a plan reports — the executor statistics
// of its most recent transform and its cumulative bandwidth accounting —
// under the names the public package documents them by.
type (
	Stats         = stagegraph.Stats
	Observability = obs.Snapshot
)

// Strategy names how a complex 2D/3D plan executes. DoubleBuf, the paper's
// pipeline, is the only value; the field stays because the benchmark/ ruler
// builds its reference plan as fft3d.Options{Strategy: fft3d.DoubleBuf}.
// The pencil-pencil and slab-pencil baselines the paper measures it
// against are functions of internal/bench.
type Strategy int

// DoubleBuf is the paper's scheme (§III): every stage is load-contiguous →
// compute-contiguous-pencils → store-blocked-rotation on the
// software-pipelined double buffer.
const DoubleBuf Strategy = 0

// Config is the execution configuration of a plan. It is comparable: the
// serving layer keys its plan cache on it.
type Config struct {
	Strategy Strategy
	// Mu is the cacheline block size μ in complex elements; zero lets the
	// builder pick machine.PreferredMu of the row length — the largest of
	// 8, 4, 2 dividing it (μ = 8 spans two 64-byte lines and measures ~0.95
	// of STREAM peak on the blocked rotations against ~0.65 for μ = 4). An
	// explicit μ must divide the row length. Real plans take the largest
	// divisor of the half row length not above Mu (default 4).
	Mu int
	// BufferElems is the per-half pipeline block size b in complex
	// elements (the engine keeps two halves); zero selects
	// machine.PreferredBufferElems, sized so both halves stay resident in
	// the host's L2 beside the streamed source and destination. The
	// effective value is rounded down so every stage has an integral number
	// of whole blocks.
	BufferElems int
	// DataWorkers (p_d) and ComputeWorkers (p_c) drive the pipeline. Zero
	// means one.
	DataWorkers    int
	ComputeWorkers int
	// Tracer records pipeline events for schedule verification.
	Tracer *trace.Recorder
	// MachineName, when set to a name internal/machine resolves, attaches
	// that machine's perfmodel prediction to a complex plan's telemetry so
	// snapshots report measured/predicted divergence. ForMachine sets it.
	MachineName string
	// RooflineGBs is the STREAM peak the telemetry normalizes per-stage
	// bandwidth against. Zero falls back to MachineName's STREAM figure;
	// both zero leaves FracPeak unreported.
	RooflineGBs float64
}

// Default returns the configuration this host would use: the paper's
// half-and-half worker assignment over the host's CPU count, everything else
// the zero value.
func Default() Config {
	pd := max(runtime.GOMAXPROCS(0)/2, 1)
	return Config{DataWorkers: pd, ComputeWorkers: pd}
}

// ForMachine returns the paper's configuration for one of the described
// machines: b = LLC/2 over two halves, μ = cacheline, p_d = p_c = threads/2
// per socket.
func ForMachine(m machine.Machine) Config {
	pairs := max(m.Threads()/2, 1)
	return Config{
		Mu:             m.LLC().LineBytes / 16,
		BufferElems:    m.DefaultBufferElems(),
		DataWorkers:    pairs,
		ComputeWorkers: pairs,
		MachineName:    m.Name,
		RooflineGBs:    m.StreamGBs,
	}
}

// described returns the machine MachineName names, if it names one.
func (c Config) described() (machine.Machine, bool) {
	if c.MachineName == "" {
		return machine.Machine{}, false
	}
	m, err := machine.Lookup(c.MachineName)
	return m, err == nil
}

// Roofline resolves the STREAM peak the telemetry should normalize
// against: the explicit figure if set, else the named machine's.
func (c Config) Roofline() float64 {
	if c.RooflineGBs > 0 {
		return c.RooflineGBs
	}
	m, _ := c.described()
	return m.StreamGBs
}

// Model returns the perfmodel for the configured machine, or nil when no
// machine is named (predictions are then simply not attached).
func (c Config) Model() *perfmodel.Model {
	m, ok := c.described()
	if !ok {
		return nil
	}
	return perfmodel.New(m)
}

// Pencils validates the configuration and starts pkg's graph descriptor for
// complex extents dims (slowest first): the 1D sub-plans and every field the
// configuration fixes. The
// caller adds the arrays and, for real or partitioned transforms, the
// endpoints and the shard.
func (c Config) Pencils(pkg string, dims ...int) (stagegraph.Pencils, error) {
	if c.Strategy != DoubleBuf {
		return stagegraph.Pencils{}, fmt.Errorf("%s: unknown strategy %d", pkg, c.Strategy)
	}
	plans := make([]*fft1d.Plan, len(dims))
	for i, d := range dims {
		if d < 1 {
			return stagegraph.Pencils{}, fmt.Errorf("%s: invalid size %v", pkg, dims)
		}
		plans[i] = stagegraph.Plan1D(d)
	}
	return stagegraph.Pencils{Pkg: pkg, Dims: dims, Plans: plans, Mu: c.Mu, BufferElems: c.BufferElems}, nil
}

// NewRunner starts pkg's runner over the built graphs — labels[i] names
// graph i's telemetry collector — with the roofline attached.
func (c Config) NewRunner(pkg string, labels []string, graphs ...*stagegraph.Graph) (*stagegraph.Runner, error) {
	run, err := stagegraph.NewRunner(stagegraph.RunnerConfig{
		Pkg: pkg, Labels: labels,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers, Tracer: c.Tracer,
	}, graphs...)
	if err != nil {
		return nil, err
	}
	run.SetRoofline(c.Roofline())
	return run, nil
}

// Plan is a reusable complex 2D or 3D FFT plan over a row-major array of
// fixed extents: one graph of one pipelined stage per dimension, its double
// buffer and its persistent executor, all owned by the runner. Transforms
// serialise on the runner's lock (the plan is safe for concurrent use;
// independent plans run fully in parallel).
type Plan struct {
	pkg  string
	dims []int
	n    int
	run  *stagegraph.Runner
}

// NewPlan builds the complex graph d describes — the caller has set its
// middle arrays — and starts its runner. predict, called only when the
// configuration names a machine, returns that machine's estimate for the
// shape, which the plan's telemetry reports divergence against.
func (c Config) NewPlan(d stagegraph.Pencils, predict func(*perfmodel.Model) perfmodel.Estimate) (*Plan, error) {
	g, err := d.Build()
	if err != nil {
		return nil, err
	}
	label, n := d.Pkg+"/", 1
	for i, e := range d.Dims {
		if i > 0 {
			label += "x"
		}
		label += fmt.Sprint(e)
		n *= e
	}
	run, err := c.NewRunner(d.Pkg, []string{label}, g)
	if err != nil {
		return nil, err
	}
	if mo := c.Model(); mo != nil {
		run.Obs(0).SetPredicted(predict(mo).StagePredictions())
	}
	return &Plan{pkg: d.Pkg, dims: d.Dims, n: n, run: run}, nil
}

// Close releases the plan's persistent executor workers. Idempotent and
// safe to call concurrently — with other Close calls and with a Transform
// in flight (Close waits for the transform to finish; later transforms
// return an error). Plans dropped without Close are cleaned up by a
// finalizer.
func (p *Plan) Close() { p.run.Close() }

// Dims returns the extents, slowest first.
func (p *Plan) Dims() []int { return slices.Clone(p.dims) }

// Len returns the element count, the product of the extents.
func (p *Plan) Len() int { return p.n }

// Iters returns the pipeline iteration count of each stage (the paper's
// iter = N/b).
func (p *Plan) Iters() []int { return slices.Clone(p.run.Iters(0)) }

// Transform computes dst = DFT(src) out of place, unnormalized in both
// directions; dst and src must each have length Len() and must not overlap.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	return p.transform(dst, src, sign, 0)
}

// Inverse computes the normalized inverse transform out of place:
// Transform(dst, src, fft1d.Inverse) followed by fft1d.Scale(dst, 1/Len()),
// bitwise. The scale rides the last stage's store or compute leg, so dst
// is not swept once more.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.transform(dst, src, fft1d.Inverse, 1/float64(p.n))
}

func (p *Plan) transform(dst, src []complex128, sign int, scale float64) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("%s: Transform lengths dst=%d src=%d, want %d", p.pkg, len(dst), len(src), p.n)
	}
	return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src},
		Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
}

// InPlace computes x = DFT(x) through a temporary of the same size.
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

// TransformMany applies the plan to count independent arrays stored
// back-to-back (the FFTW "many"/howmany interface): dst and src must each
// hold count·Len() elements and must not overlap. The arrays execute
// sequentially on the plan's buffers and work arrays, so the planning and
// allocation cost is paid once.
func (p *Plan) TransformMany(dst, src []complex128, count, sign int) error {
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

// Stats returns the whole-transform executor stats of the most recent
// transform (the zero value before the first).
func (p *Plan) Stats() Stats { return p.run.Stats() }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed.
func (p *Plan) Observability() Observability { return p.run.Observability() }

// Mu returns the effective cacheline block size (after defaulting).
func (p *Plan) Mu() int { return p.run.Mu() }

// NonTemporalStages reports how many stages currently route stores through
// the streaming tier.
func (p *Plan) NonTemporalStages() int { return p.run.NonTemporalStages() }

// ScalesInStore reports whether Inverse's 1/N rides the last stage's store
// (else it runs in that stage's compute leg).
func (p *Plan) ScalesInStore() bool { return p.run.ScalesInStore(0) }

// DescribeGraph renders the compiled stage graph the plan executes, with
// each stage's current store mode.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }
