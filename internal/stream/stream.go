// Package stream measures this host's memory bandwidth, the bandwidth term
// of P_io the paper takes every figure's achievable peak from (§V), in two
// ways.
//
// Run is the STREAM benchmark (McCalpin) in Go: Copy, Scale, Add and Triad
// over three arrays, for cmd/stream. It measures DRAM only when the arrays
// are several times the last-level cache (STREAM's own rule asks for 4×).
//
// DRAMCopyGBs is the roofline the daemon and the measured sweeps normalize
// against: on each of GOMAXPROCS goroutines one copy between two 4 MiB
// arrays, each evicted from every cache level before each trial, so 8 MiB a
// goroutine read memory however large the last-level cache is. Elsewhere the machine descriptions carry the paper's
// published STREAM numbers for the simulated paper-scale runs.
package stream

import (
	"fmt"
	"time"
)

// Kernel identifies one of the four STREAM kernels.
type Kernel int

const (
	Copy Kernel = iota
	Scale
	Add
	Triad
)

func (k Kernel) String() string {
	switch k {
	case Copy:
		return "copy"
	case Scale:
		return "scale"
	case Add:
		return "add"
	case Triad:
		return "triad"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// bytesMoved returns the bytes read+written per element by each kernel
// (the STREAM convention: copy/scale move 16 B, add/triad 24 B per
// element of float64 arrays).
func (k Kernel) bytesMoved() int {
	switch k {
	case Copy, Scale:
		return 16
	default:
		return 24
	}
}

// Result is one kernel's measured bandwidth.
type Result struct {
	Kernel    Kernel
	Elems     int
	Trials    int
	BestGBs   float64
	AvgGBs    float64
	WorstGBs  float64
	BestTime  time.Duration
	CheckedOK bool
}

// Config sizes a run.
type Config struct {
	// Elems per array (default 8 Mi ≈ 64 MB per array, 3 arrays).
	Elems int
	// Trials per kernel (default 5; best is reported, as in STREAM).
	Trials int
}

func (c Config) withDefaults() Config {
	if c.Elems == 0 {
		c.Elems = 8 << 20
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	return c
}

// Run executes all four kernels and returns their results in kernel order.
func Run(cfg Config) []Result {
	cfg = cfg.withDefaults()
	n := cfg.Elems
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
		c[i] = 0
	}
	const scalar = 3.0

	kernels := []struct {
		k Kernel
		f func()
	}{
		{Copy, func() {
			copy(c, a)
		}},
		{Scale, func() {
			for i := range b {
				b[i] = scalar * c[i]
			}
		}},
		{Add, func() {
			for i := range c {
				c[i] = a[i] + b[i]
			}
		}},
		{Triad, func() {
			for i := range a {
				a[i] = b[i] + scalar*c[i]
			}
		}},
	}

	var results []Result
	for _, kr := range kernels {
		r := Result{Kernel: kr.k, Elems: n, Trials: cfg.Trials}
		bytes := float64(n * kr.k.bytesMoved())
		var sum float64
		for t := 0; t < cfg.Trials; t++ {
			start := time.Now()
			kr.f()
			el := time.Since(start)
			gbs := bytes / el.Seconds() / 1e9
			sum += gbs
			if t == 0 || gbs > r.BestGBs {
				r.BestGBs = gbs
				r.BestTime = el
			}
			if t == 0 || gbs < r.WorstGBs {
				r.WorstGBs = gbs
			}
		}
		r.AvgGBs = sum / float64(cfg.Trials)
		r.CheckedOK = true
		results = append(results, r)
	}
	// Verification in the spirit of STREAM's checksums. With the kernels
	// run in order: c = a = 1; b = scalar·c = 3; c = a + b = 4;
	// a = b + scalar·c = 15.
	wantA := scalar*1.0 + scalar*(1.0+scalar*1.0)
	if a[0] != wantA || a[n-1] != wantA {
		for i := range results {
			results[i].CheckedOK = false
		}
	}
	return results
}
