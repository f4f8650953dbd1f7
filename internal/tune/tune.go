// Package tune searches the paper's execution parameters — buffer size b,
// the p_d : p_c worker mix, cacheline granularity μ, the radix cap and the
// store tier — empirically on the host, the way FFTW's planner or SPIRAL's
// search would. The paper fixes these by rule (b = LLC/2, half the threads
// per role); the tuner exists for hosts whose cache/thread geometry is
// unknown, and cmd/ffttune records its winners as "wisdom" (JSON), which
// LoadWisdom validates; no plan constructor reads the file.
package tune

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// Candidate is one point in the search space.
type Candidate struct {
	BufferElems    int `json:"buffer_elems"`
	DataWorkers    int `json:"data_workers"`
	ComputeWorkers int `json:"compute_workers"`
	Mu             int `json:"mu"`
	// Radix caps the Stockham stage radix of the pow2 sub-plans (0 = the
	// default 16; omitted from old wisdom files, which decode as 0).
	Radix int `json:"radix,omitempty"`
	// StorePolicy selects the block-store tier: "auto" (or empty, as in
	// old wisdom files), "regular", or "nt" — see stagegraph.StorePolicy.
	StorePolicy string `json:"store_policy,omitempty"`
	// Fuse selects the store-fold epilogue: "auto"/"on" (or empty, as in
	// old wisdom files) folds the trailing radix-4 butterfly into the
	// scatter whenever the stage chain allows, "off" runs it as a normal
	// compute sweep.
	Fuse string `json:"fuse,omitempty"`
}

// Config converts the candidate to the plan configuration it names — the
// one place the wisdom schema meets core.Config — reporting an unknown
// store-policy or fuse value.
func (c Candidate) Config() (core.Config, error) {
	sp, err := stagegraph.ParseStorePolicy(c.StorePolicy)
	if err != nil {
		return core.Config{}, err
	}
	switch c.Fuse {
	case "", "auto", "on", "off":
	default:
		return core.Config{}, fmt.Errorf("tune: unknown fuse value %q", c.Fuse)
	}
	return core.Config{
		Mu: c.Mu, BufferElems: c.BufferElems,
		DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers,
		Radix: c.Radix, StorePolicy: sp, DisableStoreFold: c.Fuse == "off",
	}, nil
}

func (c Candidate) String() string {
	sp := c.StorePolicy
	if sp == "" {
		sp = "auto"
	}
	fu := c.Fuse
	if fu == "" {
		fu = "auto"
	}
	return fmt.Sprintf("b=%d p_d=%d p_c=%d μ=%d radix=%d store=%s fuse=%s",
		c.BufferElems, c.DataWorkers, c.ComputeWorkers, c.Mu, c.Radix, sp, fu)
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
	// Radixes lists the pow2 radix caps to try (nil/empty = {0}, the
	// default radix-16 mix only).
	Radixes []int
	// StorePolicies lists the store tiers to try ("auto", "regular",
	// "nt"); nil/empty = {"auto"}.
	StorePolicies []string
	// Fuses lists the store-fold settings to try ("auto", "on", "off");
	// nil/empty = {"auto"}.
	Fuses []string
}

// DefaultSpace returns a modest space appropriate for `threads` hardware
// threads: buffer sizes bracketing typical LLC halves, balanced and skewed
// worker mixes, both cacheline granularities (μ = 4, one 64 B line, and
// μ = 8), and the radix-16 / radix-8 / radix-4 sweep mixes.
func DefaultSpace(threads int) Space {
	if threads < 2 {
		threads = 2
	}
	half := threads / 2
	workers := [][2]int{{half, threads - half}}
	if half > 1 {
		workers = append(workers, [2]int{1, threads - 1}, [2]int{threads - 1, 1})
	}
	policies := []string{"auto"}
	if layout.NonTemporalAvailable() {
		// "auto" and "regular" coincide for cache-resident sizes, so only
		// the streaming tier is worth a separate axis point.
		policies = append(policies, "nt")
	}
	return Space{
		Buffers:       []int{1 << 12, 1 << 14, 1 << 16},
		Workers:       workers,
		Mus:           []int{4, 8},
		Radixes:       []int{16, 8, 4},
		StorePolicies: policies,
		Fuses:         []string{"auto", "off"},
	}
}

// candidates expands the space.
func (s Space) candidates() []Candidate {
	radixes := s.Radixes
	if len(radixes) == 0 {
		radixes = []int{0}
	}
	policies := s.StorePolicies
	if len(policies) == 0 {
		policies = []string{"auto"}
	}
	fuses := s.Fuses
	if len(fuses) == 0 {
		fuses = []string{"auto"}
	}
	var out []Candidate
	for _, b := range s.Buffers {
		for _, ws := range s.Workers {
			for _, mu := range s.Mus {
				for _, r := range radixes {
					for _, sp := range policies {
						for _, fu := range fuses {
							out = append(out, Candidate{
								BufferElems: b, DataWorkers: ws[0], ComputeWorkers: ws[1],
								Mu: mu, Radix: r, StorePolicy: sp, Fuse: fu,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Tune measures every candidate on a real transform of shape dims — n×m or
// k×n×m — reps times, best time kept, and returns the winner plus all
// results in search order. A candidate that cannot run the shape — μ does
// not tile the fastest axis, or it does not convert — is skipped, not an
// error.
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
		cfg, err := c.Config()
		if err != nil || c.Mu < 1 || dims[len(dims)-1]%c.Mu != 0 {
			continue
		}
		var p interface {
			Transform(dst, src []complex128, sign int) error
			Close()
		}
		if len(dims) == 2 {
			p, err = fft2d.NewPlan(dims[0], dims[1], cfg)
		} else {
			p, err = fft3d.NewPlan(dims[0], dims[1], dims[2], cfg)
		}
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
