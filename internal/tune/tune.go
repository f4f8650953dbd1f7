// Package tune searches the paper's execution parameters — buffer size b,
// the p_d : p_c worker mix and cacheline granularity μ — empirically on the
// host, the way FFTW's planner or SPIRAL's search would. The paper fixes
// them by rule (b = LLC/2, half the threads per role); the tuner exists for
// hosts whose cache/thread geometry is unknown, and cmd/ffttune records its
// winners as "wisdom" (JSON), which LoadWisdom validates; no plan
// constructor reads the file. The radix cap, the store tier and the store
// fold were search axes until a sweep found no value but the default worth
// keeping (EXPERIMENTS.md "Ablation axes, swept once").
package tune

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// Candidate is one point in the search space. Wisdom files written before
// the radix cap, the store tier and the store fold left the search carry
// "radix", "store_policy" and "fuse" members; they decode and are ignored.
type Candidate struct {
	BufferElems    int `json:"buffer_elems"`
	DataWorkers    int `json:"data_workers"`
	ComputeWorkers int `json:"compute_workers"`
	Mu             int `json:"mu"`
}

// Config converts the candidate to the plan configuration it names — the
// one place the wisdom schema meets core.Config.
func (c Candidate) Config() core.Config {
	return core.Config{
		Mu: c.Mu, BufferElems: c.BufferElems,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers,
	}
}

func (c Candidate) String() string {
	return fmt.Sprintf("b=%d p_d=%d p_c=%d μ=%d", c.BufferElems, c.DataWorkers, c.ComputeWorkers, c.Mu)
}

// Result is a measured candidate.
type Result struct {
	Candidate
	Seconds float64 `json:"seconds"`
}

// Space enumerates the candidates to try.
type Space struct {
	Buffers []int
	Workers [][2]int // {p_d, p_c}
	Mus     []int
}

// DefaultSpace returns a modest space appropriate for `threads` hardware
// threads: buffer sizes bracketing typical LLC halves, balanced and skewed
// worker mixes, and both cacheline granularities (μ = 4, one 64 B line, and
// μ = 8).
func DefaultSpace(threads int) Space {
	if threads < 2 {
		threads = 2
	}
	half := threads / 2
	workers := [][2]int{{half, threads - half}}
	if half > 1 {
		workers = append(workers, [2]int{1, threads - 1}, [2]int{threads - 1, 1})
	}
	return Space{
		Buffers: []int{1 << 12, 1 << 14, 1 << 16},
		Workers: workers,
		Mus:     []int{4, 8},
	}
}

// candidates expands the space.
func (s Space) candidates() []Candidate {
	var out []Candidate
	for _, b := range s.Buffers {
		for _, ws := range s.Workers {
			for _, mu := range s.Mus {
				out = append(out, Candidate{BufferElems: b, DataWorkers: ws[0], ComputeWorkers: ws[1], Mu: mu})
			}
		}
	}
	return out
}

// Tune measures every candidate on a real transform of shape dims — n×m or
// k×n×m — reps times, best time kept, and returns the winner plus all
// results in search order. A candidate whose μ does not tile the fastest
// axis is skipped, not an error.
func Tune(dims []int, space Space, reps int) (Result, []Result, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return Result{}, nil, fmt.Errorf("tune: need 2 or 3 dimensions, got %v", dims)
	}
	reps = max(reps, 1)
	elems := 1
	for _, d := range dims {
		elems *= d
	}
	x := make([]complex128, elems)
	for i := range x {
		x[i] = complex(float64(i%31)-15, float64(i%17)-8)
	}
	y := make([]complex128, len(x))

	var all []Result
	best := Result{Seconds: -1}
	for _, c := range space.candidates() {
		if c.Mu < 1 || dims[len(dims)-1]%c.Mu != 0 {
			continue
		}
		p, err := core.NewPlan(c.Config(), false, dims...)
		if err != nil {
			return Result{}, nil, err
		}
		secs, err := timeBest(reps, func() error { return p.Transform(y, x, fft1d.Forward) })
		p.Close()
		if err != nil {
			return Result{}, nil, err
		}
		r := Result{Candidate: c, Seconds: secs}
		all = append(all, r)
		if best.Seconds < 0 || secs < best.Seconds {
			best = r
		}
	}
	if best.Seconds < 0 {
		return Result{}, nil, fmt.Errorf("tune: no feasible candidate for %v", dims)
	}
	return best, all, nil
}

func timeBest(reps int, f func() error) (float64, error) {
	best := -1.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if el := time.Since(start).Seconds(); best < 0 || el < best {
			best = el
		}
	}
	return best, nil
}
