// Package perfmodel turns machine descriptions, cache-simulator traffic
// measurements and the paper's bandwidth arithmetic into per-figure
// performance estimates at paper scale (sizes up to 2048³ that cannot be
// executed in this container).
//
// Modeling approach, per implementation:
//
//   - Achievable peak is the paper's P_io formula (§V): data streamed at
//     STREAM bandwidth, infinite compute.
//   - DoubleBuf (the paper's scheme) is modeled from first principles: per
//     stage, data time is bytes/BW with a rotation-store efficiency and (for
//     2D) a TLB term, compute time comes from the machine's compute peak at
//     a fixed FFT efficiency, the stage costs max(T_data, T_compute)
//     inflated by the pipeline fill factor of one graph: (iters+1)/iters
//     per stage, (iters+2)/iters for the last.
//   - The MKL- and FFTW-class baselines are *models of non-overlapped
//     pencil libraries*, not those libraries: their strided-stage effective
//     bandwidth is measured by running the cache simulator over the strided
//     pencil access pattern on the target machine's hierarchy, and a
//     per-library planning-quality factor (calibrated once against the
//     paper's reported 47%/50%-of-peak numbers, documented in
//     EXPERIMENTS.md) separates MKL from FFTW. On AMD machines the
//     FFTW-class baseline uses the slab-pencil decomposition (two memory
//     round trips), which the paper names as the reason FFTW is stronger
//     there (§V).
//   - Dual-socket estimates add the Fig. 8 traffic: stage 1 entirely local;
//     stages 2 and 3 send (sk-1)/sk of their writes over the QPI/HT link,
//     and the stage time is the max of the DRAM time, the link time and the
//     compute time.
package perfmodel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/machine"
)

// AchievablePeakGflops is the paper's P_io (§V): pseudo-flops at full
// STREAM bandwidth with infinite compute. totalElems is the number of
// complex points, stages the number of compute stages, bwGBs the STREAM
// bandwidth in GB/s.
//
// The denominator follows the paper exactly: the printed formula divides by
// 2·N·nr_stages·sizeof(double) (the 2 is the read+write round trip per
// stage) and the text adds "the current implementation offers support for
// complex numbers therefore the total size is multiplied by two" — so the
// effective denominator is 2 · (2·N·8) · nr_stages = 32·N·nr_stages bytes.
func AchievablePeakGflops(totalElems, stages int, bwGBs float64) float64 {
	n := float64(totalElems)
	return 5 * n * math.Log2(n) * bwGBs / (2 * 2 * n * float64(stages) * 8)
}

// PseudoGflops converts a runtime into the paper's performance metric
// 5·N·log2(N) / time.
func PseudoGflops(totalElems int, seconds float64) float64 {
	n := float64(totalElems)
	return 5 * n * math.Log2(n) / seconds / 1e9
}

// Library identifies a baseline class.
type Library string

const (
	LibMKL  Library = "mkl"
	LibFFTW Library = "fftw"
)

// Model holds a machine plus calibration constants.
type Model struct {
	M machine.Machine

	// FFTComputeEff is the fraction of nominal compute peak an FFT kernel
	// sustains on cached data (vectorized split-format kernels; SPIRAL-
	// class code runs at roughly this fraction).
	FFTComputeEff float64
	// RotateStoreEff is the effective-bandwidth fraction of the blocked
	// non-temporal rotation store relative to pure streaming.
	RotateStoreEff float64
	// PlanningBonus scales each baseline library's strided-stage
	// efficiency (MKL's planner blocks better than FFTW's estimate mode;
	// calibrated against the paper's reported fractions of peak).
	PlanningBonus map[Library]float64
	// BaselineRemotePenalty multiplies baseline bandwidth on multi-socket
	// machines. The paper allocates and partitions data per NUMA node for
	// all implementations (§V), so the default is 1 (no penalty); set it
	// below 1 to model NUMA-oblivious placement.
	BaselineRemotePenalty float64
	// TLBRowCost is the 2D droop constant: the stage-2 transpose panel of
	// r = b/m rows runs at r/(r+TLBRowCost) of the rotation bandwidth.
	TLBRowCost float64
	// ScatterDRAMEff is the DRAM efficiency of isolated 64 B bursts at
	// large strides relative to streaming (row-buffer locality loss).
	ScatterDRAMEff float64
	// FusedCodeletEff scales the sustained compute rate of the DoubleBuf
	// models for the fused codelet chain. The radix-16 codelets do two
	// rank stages per register sweep and the store leg absorbs the final
	// trivial-twiddle radix-4 butterfly, so the compute thread makes
	// ⌈(log4 n − 1)/2⌉ buffer sweeps instead of log4(n) — roughly half
	// the L1/L2 round trips per flop. FFTComputeEff is calibrated for the
	// one-rank-per-sweep kernels; this factor is the fused chain's
	// relative gain on cached data.
	FusedCodeletEff float64

	mu      sync.Mutex
	strided map[string]float64 // cached cachesim-derived efficiencies
}

// New returns a model with default calibration for machine m.
func New(m machine.Machine) *Model {
	return &Model{
		M:              m,
		FFTComputeEff:  0.40,
		RotateStoreEff: 0.85,
		PlanningBonus: map[Library]float64{
			LibMKL:  1.00,
			LibFFTW: 0.75,
		},
		BaselineRemotePenalty: 1.0,
		FusedCodeletEff:       1.3,
		TLBRowCost:            2.0,
		ScatterDRAMEff:        0.85,
		strided:               make(map[string]float64),
	}
}

// StageCost is one stage's modeled cost breakdown.
type StageCost struct {
	Name       string
	DataSec    float64
	LinkSec    float64
	ComputeSec float64
	FillFactor float64
	Sec        float64 // max of the above × fill
	Overlapped bool
}

// Estimate is a complete prediction for one transform execution.
type Estimate struct {
	Name       string
	Elems      int
	Stages     []StageCost
	Seconds    float64
	Gflops     float64
	PeakGflops float64 // achievable peak (P_io)
	PctOfPeak  float64
}

func (e Estimate) String() string {
	return fmt.Sprintf("%s: %.2f Gflop/s (%.0f%% of %.2f achievable)",
		e.Name, e.Gflops, e.PctOfPeak*100, e.PeakGflops)
}

// finish fills the derived fields.
func (mo *Model) finish(name string, elems, peakStages int, stages []StageCost) Estimate {
	var total float64
	for _, s := range stages {
		total += s.Sec
	}
	e := Estimate{
		Name:       name,
		Elems:      elems,
		Stages:     stages,
		Seconds:    total,
		Gflops:     PseudoGflops(elems, total),
		PeakGflops: AchievablePeakGflops(elems, peakStages, mo.M.StreamGBs),
	}
	e.PctOfPeak = e.Gflops / e.PeakGflops
	return e
}

// computeGflops returns the sustained FFT compute rate for the given number
// of compute cores.
func (mo *Model) computeGflops(cores int) float64 {
	return mo.M.FreqGHz * mo.M.FlopsPerCycle() * float64(cores) * mo.FFTComputeEff
}

// doubleBufGflops is computeGflops with the fused-codelet sweep bonus
// applied.
func (mo *Model) doubleBufGflops(cores int) float64 {
	g := mo.computeGflops(cores)
	if mo.FusedCodeletEff > 0 {
		g *= mo.FusedCodeletEff
	}
	return g
}

// computeCoresDoubleBuf returns the cores available for computation when
// half the threads are data threads: with SMT pairing the data thread
// shares its compute thread's core (the core still computes); without SMT
// half the cores are given up.
func (mo *Model) computeCoresDoubleBuf() int {
	total := mo.M.Sockets * mo.M.CoresPerSocket
	if mo.M.ThreadsPerCore >= 2 {
		return total
	}
	return total / 2
}

// stridedEfficiency measures, via the cache simulator, the effective
// bandwidth fraction of an in-place strided pencil stage with the given
// pencil length and stride (in elements) on this machine's hierarchy.
//
// The hierarchy is scaled down by hierScale (sizes ÷ 16, associativity
// kept) and the simulated matrix is capped correspondingly — cache-conflict
// behaviour of a strided sweep is approximately scale invariant once the
// working set exceeds the LLC. The TLB is NOT scaled (its reach is an
// absolute number of pages), so long pencils at page-or-larger strides show
// their real translation thrashing. The resulting fraction combines the
// traffic amplification (extra DRAM bytes from write-allocate, conflict
// evictions and page walks) with a DRAM scatter factor for 64 B bursts at
// large strides (row-buffer locality loss STREAM never pays).
func (mo *Model) stridedEfficiency(pencilLen, strideElems int) float64 {
	rows := clampDim(pencilLen, 2048)
	cols := clampDim(strideElems, 1024)
	key := fmt.Sprintf("%d:%d", rows, cols)
	mo.mu.Lock()
	if v, ok := mo.strided[key]; ok {
		mo.mu.Unlock()
		return v
	}
	mo.mu.Unlock()

	h, err := scaledHierarchy(mo.M, hierScale)
	if err != nil {
		return 0.5
	}
	cachesim.BufferedPencilSweep(h, rows, cols, 4, 16)
	ideal := float64(2 * rows * cols * 16)
	amp := float64(h.EffectiveBytes()) / ideal
	eff := mo.ScatterDRAMEff / amp
	mo.mu.Lock()
	mo.strided[key] = eff
	mo.mu.Unlock()
	return eff
}

const hierScale = 16

func scaledHierarchy(m machine.Machine, scale int) (*cachesim.Hierarchy, error) {
	var specs []cachesim.LevelSpec
	for _, c := range m.Caches {
		size := c.SizeBytes / scale
		if min := c.Ways * c.LineBytes; size < min {
			size = min
		}
		specs = append(specs, cachesim.LevelSpec{
			Name:      fmt.Sprintf("L%d", c.Level),
			SizeBytes: size,
			Ways:      c.Ways,
			LineBytes: c.LineBytes,
		})
	}
	return cachesim.New(specs...)
}

func clampDim(v, hi int) int {
	if v > hi {
		return hi
	}
	if v < 2 {
		return 2
	}
	return v
}

// fill returns the software-pipeline fill factor of one stage run in
// isolation (fill + drain) for it iterations.
func fill(iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	return float64(iters+2) / float64(iters)
}

// stageFill returns the fill factor charged to one stage of a multi-stage
// transform under the paper's Table II schedule with the stages fused into
// one graph: the whole transform fills and drains the pipeline once, so the
// S-stage graph runs sum(iters)+S+1 steps, attributed as iters+1 steps per
// non-final stage and iters+2 for the final one.
func stageFill(iters int, last bool) float64 {
	if iters < 1 {
		iters = 1
	}
	if !last {
		return float64(iters+1) / float64(iters)
	}
	return fill(iters)
}
