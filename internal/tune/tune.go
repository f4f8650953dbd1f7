// Package tune searches the paper's execution parameters — buffer size b
// and cacheline granularity μ — empirically on the host, the way FFTW's
// planner or SPIRAL's search would, at the default lane count (one lane a
// GOMAXPROCS). The paper fixes them by rule (b = LLC/2); the tuner exists for
// hosts whose cache/thread geometry is unknown. cmd/ffttune prints its
// table, and a caller applies the winner's b and μ as plan options. The
// radix cap, the store tier and the store fold were search axes until a
// sweep found no value but the default worth keeping (EXPERIMENTS.md
// "Ablation axes, swept once").
package tune

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// Candidate is one point in the search space.
type Candidate struct {
	BufferElems int
	Mu          int
}

// Config converts the candidate to the plan configuration it names, on
// core.Default()'s lanes.
func (c Candidate) Config() core.Config {
	cfg := core.Default()
	cfg.Mu, cfg.BufferElems = c.Mu, c.BufferElems
	return cfg
}

func (c Candidate) String() string {
	return fmt.Sprintf("b=%d μ=%d", c.BufferElems, c.Mu)
}

// Result is a measured candidate.
type Result struct {
	Candidate
	Seconds float64
}

// Space enumerates the candidates to try.
type Space struct {
	Buffers []int
	Mus     []int
}

// DefaultSpace returns a modest space: buffer sizes bracketing typical L2
// and LLC shares, and both cacheline granularities (μ = 4, one 64 B line,
// and μ = 8).
func DefaultSpace() Space {
	return Space{
		Buffers: []int{1 << 12, 1 << 14, 1 << 16},
		Mus:     []int{4, 8},
	}
}

// candidates expands the space.
func (s Space) candidates() []Candidate {
	var out []Candidate
	for _, b := range s.Buffers {
		for _, mu := range s.Mus {
			out = append(out, Candidate{BufferElems: b, Mu: mu})
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
