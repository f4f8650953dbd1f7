// Package core declares the plan configuration — once — and the one plan. The paper fixes a plan by three rules (§IV): b = LLC/2, μ =
// one cacheline, p_d = p_c = threads/2. Config carries those — the thread
// rule as a lane count, one lane a core (DESIGN.md §2) — and the telemetry
// hooks, and nothing else: the radix chain, the store fold and the store
// tier are not configuration (EXPERIMENTS.md "Ablation axes, swept once";
// their oracle variants are stagegraph.Ablation, which only a test
// installs). Default and ForMachine apply the lane rule (and, for a
// described machine, the other two and its STREAM roofline). The zero
// Config is the product on one lane: the paper's load → compute → store
// pipeline, store-folded, store tier chosen from the footprint, with μ and
// the buffer size resolved by the builder from the measured profile.
//
// Plan is every transform the repository runs, as the paper writes them
// (§III): one stage-graph descriptor per direction whose stages differ only
// by the swept axis. NewPlan takes the domain and the extents as parameters
// — complex or real, at rank 1 to 3 — and hands the configuration to the
// one graph builder and the one runner. A complex rank-1 plan is the one
// graph-less case: its single axis is the same Stockham chain
// (stagegraph.Plan1D) every other plan runs per axis, run on the caller's
// goroutine instead of through a pipeline.
//
// There is one compute format, complex-interleaved: the paper's §IV-A
// block-interleaved format was implemented, measured 1.3–1.9× behind it in
// every cell (EXPERIMENTS.md "Plan defaults and whole-line streaming
// stores") and retired; commit f193575 is the last that contains it.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Observability is what a plan reports — its cumulative bandwidth
// accounting — under the name the public package documents it by.
type Observability = obs.Snapshot

// Strategy names how a plan executes. DoubleBuf, the paper's pipeline, is
// the only value; the field stays because the benchmark/ ruler builds its
// reference plan as fft3d.Options{Strategy: fft3d.DoubleBuf}.
// The pencil-pencil and slab-pencil baselines the paper measures it
// against are functions of internal/bench.
type Strategy int

// DoubleBuf is the paper's scheme (§III): every stage is load-contiguous →
// compute-contiguous-pencils → store-blocked-rotation, block by block on
// the lanes.
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
	// BufferElems is the pipeline block size b in complex elements, one
	// block a lane; zero selects machine.PreferredBufferElems, sized for the
	// host's L2 beside the streamed source and destination. The effective
	// value is rounded down so every stage has an integral number of whole
	// blocks.
	BufferElems int
	// Lanes is the lane count L: each lane runs a contiguous 1/L of every
	// stage's blocks, load → compute → store. Zero means one.
	Lanes int
	// Tracer records pipeline events for schedule verification.
	Tracer *trace.Recorder
	// RooflineGBs is the STREAM peak the telemetry normalizes per-stage
	// bandwidth against; zero leaves FracPeak unreported.
	RooflineGBs float64
}

// Default returns the configuration this host would use: one lane per
// GOMAXPROCS, everything else the zero value.
func Default() Config {
	return Config{Lanes: runtime.GOMAXPROCS(0)}
}

// ForMachine returns the paper's configuration for one of the described
// machines: b = LLC/2 over two halves, μ = cacheline, and one lane for each
// of its p_d = p_c = threads/2 data/compute pairs — a pair is one core's two
// hyperthreads.
func ForMachine(m machine.Machine) Config {
	return Config{
		Mu:          m.LLC().LineBytes / 16,
		BufferElems: m.DefaultBufferElems(),
		Lanes:       max(m.Threads()/2, 1),
		RooflineGBs: m.StreamGBs,
	}
}

// MaxElems caps the element count of a plan's extents: a complex array of
// that many elements keeps a byte size an int holds.
const MaxElems = math.MaxInt / 32

// ErrTooLarge is wrapped by Check's refusal of a shape past its cap.
var ErrTooLarge = errors.New("too large")

// Shape describes one transform: its rank, its extents slowest first with
// zeros past the rank — the paper builds every stage of a plan from the
// extents alone (§III) — and its domain. Check is the one rule on which
// shapes describe a transform; the plan constructor, the serving layer,
// the /transform codec and the shard worker's job spec all run it before
// they size anything from a shape.
type Shape struct {
	Rank int
	Dims [3]int
	Real bool // real-input (r2c/c2r): Dims describe the real grid
}

// ShapeOf returns the shape of extents dims, slowest first. More than three
// extents make a shape Check refuses.
func ShapeOf(real bool, dims ...int) Shape {
	s := Shape{Rank: len(dims), Real: real}
	copy(s.Dims[:], dims)
	return s
}

// Check refuses a shape that describes no transform of at most maxElems
// elements: a rank outside 1 to 3, an extent below 1 inside the rank or
// other than 0 past it, a product of the extents past maxElems (an error
// wrapping ErrTooLarge; each partial product is taken at full width, so it
// cannot overflow), and a real shape whose last extent is odd. maxElems is
// at most MaxElems.
func (s Shape) Check(maxElems int) error {
	if s.Rank < 1 || s.Rank > 3 {
		return fmt.Errorf("rank must be 1, 2 or 3, got %d", s.Rank)
	}
	n := uint(1)
	for i, d := range s.Dims {
		if i >= s.Rank {
			if d != 0 {
				return fmt.Errorf("a rank-%d shape has dims %v: extents past the rank must be 0", s.Rank, s.Dims)
			}
			continue
		}
		if d < 1 {
			return fmt.Errorf("dims must be ≥ 1, got %v", s.dims())
		}
		hi, lo := bits.Mul(n, uint(d))
		if hi != 0 || lo > uint(maxElems) {
			return fmt.Errorf("%w: dims %v exceed %d elements", ErrTooLarge, s.dims(), maxElems)
		}
		n = lo
	}
	if s.Real && s.Dims[s.Rank-1]%2 != 0 {
		return fmt.Errorf("a real shape needs an even last extent, got dims %v", s.dims())
	}
	return nil
}

// dims returns a copy of the extents inside the rank: an error that held
// the receiver's own array would move every shape Check sees to the heap.
func (s Shape) dims() []int { return slices.Clone(s.Dims[:s.Rank]) }

// CheckSharded refuses a shape the shard tier cannot run: it splits rank-3
// complex arrays into z-slabs, nothing else.
func (s Shape) CheckSharded() error {
	if s.Rank != 3 || s.Real {
		return fmt.Errorf("a sharded transform is rank 3 and complex, got rank %d, real %t", s.Rank, s.Real)
	}
	return nil
}

// Elems returns the product of the extents — the complex array, or a real
// shape's real grid — of a shape Check accepted.
func (s Shape) Elems() int {
	n := s.Dims[0]
	if s.Rank > 1 {
		n *= s.Dims[1]
	}
	if s.Rank > 2 {
		n *= s.Dims[2]
	}
	return n
}

// SpectrumElems returns the element count of the transformed array: Elems
// for a complex shape, the Hermitian half spectrum — the extents with the
// last, m, replaced by m/2+1 — for a real one.
func (s Shape) SpectrumElems() int {
	_, spec := s.Lens(false)
	return spec
}

// Lens returns the element counts of a transform's operand and result in
// one direction: the array and its spectrum forward, the reverse inverse.
// A real shape's real grid counts float64s, every other side complex128s.
func (s Shape) Lens(inverse bool) (src, dst int) {
	n := s.Elems()
	spec := n
	if s.Real {
		last := s.Dims[s.Rank-1]
		spec = n / last * (last/2 + 1)
	}
	if inverse {
		return spec, n
	}
	return n, spec
}
