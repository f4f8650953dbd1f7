// Package core declares the plan configuration — once. The paper fixes a
// plan by three rules (§IV): b = LLC/2, μ = one cacheline, p_d = p_c =
// threads/2. Config carries those, the strategy and the telemetry hooks, and
// nothing else: the radix chain, fusion, the store fold and the store tier
// are not configuration (EXPERIMENTS.md "Ablation axes, swept once"; their
// oracle variants are stagegraph.Ablation, which only a test installs).
// Default and ForMachine apply the worker rule (and, for a described
// machine, the other two); internal/fft2d, internal/fft3d and internal/rfft
// take a Config as it is and hand its fields to the one graph builder and the
// one runner through Pencils and NewRunner below. The zero Config is the
// product: the paper's double-buffer pipeline, fused, store-folded, store
// tier chosen from the footprint, with μ and the buffer size resolved by the
// builder from the measured profile.
//
// There is one compute format, complex-interleaved: the paper's §IV-A
// block-interleaved format was implemented, measured 1.3–1.9× behind it in
// every cell (EXPERIMENTS.md "Plan defaults and whole-line streaming
// stores") and retired; commit f193575 is the last that contains it.
package core

import (
	"fmt"
	"runtime"

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

// Strategy selects how a complex 2D/3D plan executes.
type Strategy int

const (
	// DoubleBuf is the paper's scheme (§III): every stage is load-contiguous
	// → compute-contiguous-pencils → store-blocked-rotation on the
	// software-pipelined double buffer.
	DoubleBuf Strategy = iota
	// Reference is the serial row-column(-pillar) algorithm through the
	// lane driver: the correctness oracle.
	Reference
	// Pencil is the non-overlapped baseline with strided pencils — the
	// memory behaviour the paper ascribes to MKL/FFTW (§II-D).
	Pencil
	// Slab fuses the first two 3D stages per z-slab, then runs the strided
	// z stage (§II-B). 2D has no slab variant and runs Pencil.
	Slab
)

var strategyNames = [...]string{"doublebuf", "reference", "pencil", "slab"}

func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// ParseStrategy is the inverse of String.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

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
	// DataWorkers (p_d) and ComputeWorkers (p_c) drive the pipeline; Workers
	// is the pool size of the Pencil and Slab baselines. Zero means one.
	DataWorkers    int
	ComputeWorkers int
	Workers        int
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
	threads := runtime.GOMAXPROCS(0)
	pd := max(threads/2, 1)
	return Config{
		Strategy:       DoubleBuf,
		DataWorkers:    pd,
		ComputeWorkers: pd,
		Workers:        threads,
	}
}

// ForMachine returns the paper's configuration for one of the described
// machines: b = LLC/2 over two halves, μ = cacheline, p_d = p_c = threads/2
// per socket.
func ForMachine(m machine.Machine) Config {
	pairs := max(m.Threads()/2, 1)
	return Config{
		Strategy:       DoubleBuf,
		Mu:             m.LLC().LineBytes / 16,
		BufferElems:    m.DefaultBufferElems(),
		DataWorkers:    pairs,
		ComputeWorkers: pairs,
		Workers:        m.Threads(),
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
	if c.Strategy < 0 || int(c.Strategy) >= len(strategyNames) {
		return stagegraph.Pencils{}, fmt.Errorf("%s: unknown strategy %v", pkg, c.Strategy)
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
