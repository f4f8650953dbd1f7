// Package core declares the plan configuration — once — and the one
// pipelined plan. The paper fixes a plan by three rules (§IV): b = LLC/2, μ =
// one cacheline, p_d = p_c = threads/2. Config carries those and the
// telemetry hooks, and nothing else: the radix chain, fusion, the store fold
// and the store tier are not configuration (EXPERIMENTS.md "Ablation axes,
// swept once"; their oracle variants are stagegraph.Ablation, which only a
// test installs). Default and ForMachine apply the worker rule (and, for a
// described machine, the other two). The zero Config is the product: the
// paper's double-buffer pipeline, fused, store-folded, store tier chosen from
// the footprint, with μ and the buffer size resolved by the builder from the
// measured profile.
//
// Plan is every multi-dimensional and real transform the repository runs,
// as the paper writes them (§III): one stage-graph descriptor per direction
// whose stages differ only by the swept axis. NewPlan takes the domain and
// the extents as parameters — complex at rank 2 or 3, real at rank 1 to 3 —
// and hands the configuration to the one graph builder and the one runner.
// A complex rank-1 transform is fft1d.Plan, which runs no pipeline.
//
// There is one compute format, complex-interleaved: the paper's §IV-A
// block-interleaved format was implemented, measured 1.3–1.9× behind it in
// every cell (EXPERIMENTS.md "Plan defaults and whole-line streaming
// stores") and retired; commit f193575 is the last that contains it.
package core

import (
	"math"
	"runtime"

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

// Strategy names how a plan executes. DoubleBuf, the paper's pipeline, is
// the only value; the field stays because the benchmark/ ruler builds its
// reference plan as fft3d.Options{Strategy: fft3d.DoubleBuf}.
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

// model returns the perfmodel for the configured machine, or nil when no
// machine is named (predictions are then simply not attached).
func (c Config) model() *perfmodel.Model {
	m, ok := c.described()
	if !ok {
		return nil
	}
	return perfmodel.New(m)
}

// MaxElems caps the element count of a plan's extents: a complex array of
// that many elements — and a real plan's real grid and half spectrum, at
// most twice as many elements as its packed complex lanes — keeps a byte
// size an int holds.
const MaxElems = math.MaxInt / 32

// Elems returns the product of dims, or false when an extent is below 1 or
// the product exceeds MaxElems. Dividing the cap, not multiplying the
// extents, cannot overflow.
func Elems(dims ...int) (int, bool) {
	n := 1
	for _, d := range dims {
		if d < 1 || d > MaxElems/n {
			return 0, false
		}
		n *= d
	}
	return n, true
}
