package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

func randReal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// The DC and Nyquist bins of a real row's spectrum are real.
func TestHermitianEndpointsReal(t *testing.T) {
	const tol = 1e-10
	p, _ := NewPlan(Config{}, true, 32)
	defer p.Close()
	x := randReal(9, 32)
	spec := make([]complex128, p.SpectrumLen())
	if err := p.ForwardReal(spec, x, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(spec[0])) > tol || math.Abs(imag(spec[16])) > tol {
		t.Fatalf("DC/Nyquist not real: %v %v", spec[0], spec[16])
	}
}

// TestInverseForcesSelfConjugateBins is the regression test for the old
// Plan1D.Inverse doc-vs-behaviour mismatch: the imaginary parts of the DC
// and Nyquist bins are documented as forced to zero, so an inverse of a
// spectrum with dirt in them must produce exactly the same real signal as
// the clean spectrum — in every rank, and without modifying src.
func TestInverseForcesSelfConjugateBins(t *testing.T) {
	for _, dims := range [][]int{{48}, {6, 8}, {4, 6, 8}} {
		t.Run(fmt.Sprintf("%dD", len(dims)), func(t *testing.T) {
			p, _ := NewPlan(Config{}, true, dims...)
			defer p.Close()
			spec := make([]complex128, p.SpectrumLen())
			if err := p.ForwardReal(spec, randReal(int64(20+len(dims)), p.Len()), 1); err != nil {
				t.Fatal(err)
			}
			// Dirty the imaginary part of every self-conjugate bin: each
			// outer index 0 or half its extent, kx 0 or m/2.
			mc := dims[len(dims)-1]/2 + 1
			dirty := slices.Clone(spec)
			for r := 0; r < len(spec)/mc; r++ {
				self := true
				for i, q := len(dims)-2, r; i >= 0; i, q = i-1, q/dims[i] {
					self = self && (q%dims[i] == 0 || 2*(q%dims[i]) == dims[i])
				}
				if self {
					dirty[r*mc] += complex(0, 3.5)
					dirty[r*mc+mc-1] -= complex(0, 1.25)
				}
			}
			saved := slices.Clone(dirty)
			clean, got := make([]float64, p.Len()), make([]float64, p.Len())
			if err := p.InverseReal(clean, spec, 1); err != nil {
				t.Fatal(err)
			}
			if err := p.InverseReal(got, dirty, 1); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(clean, got) {
				t.Error("dirty self-conjugate bins leaked into the output")
			}
			if !slices.Equal(dirty, saved) {
				t.Error("InverseReal modified src")
			}
		})
	}
}

// TestPlanValidation holds every rank to its size checks, its accessors and
// its length checks; only a rank-1 plan batches.
func TestPlanValidation(t *testing.T) {
	for _, c := range []struct {
		name                string
		bad                 [][]int // extents NewPlan refuses
		dims                []int   // a valid plan
		realLen, specLen    int
		shortDst, shortBack int // a forward dst and an inverse dst one element short
	}{
		{"rank1", [][]int{{0}, {1}, {3}, {7}}, []int{8}, 8, 5, 4, 7},
		{"rank2", [][]int{{0, 4}, {4, 3}}, []int{2, 4}, 8, 6, 5, 7},
		{"rank3", [][]int{{0, 4, 4}, {4, 4, 7}}, []int{2, 2, 4}, 16, 12, 11, 15},
		{"rank0and4", [][]int{{}, {2, 2, 2, 2}}, nil, 0, 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, dims := range c.bad {
				if _, err := NewPlan(Config{}, true, dims...); err == nil {
					t.Errorf("accepted %v", dims)
				}
			}
			if c.dims == nil {
				return
			}
			p, err := NewPlan(Config{}, true, c.dims...)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if !slices.Equal(p.Dims(), c.dims) || p.Len() != c.realLen || p.SpectrumLen() != c.specLen {
				t.Fatalf("Dims %v RealLen %d SpectrumLen %d, want %v %d %d",
					p.Dims(), p.Len(), p.SpectrumLen(), c.dims, c.realLen, c.specLen)
			}
			if err := p.ForwardReal(make([]complex128, c.shortDst), make([]float64, c.realLen), 1); err == nil {
				t.Error("accepted short dst")
			}
			if err := p.InverseReal(make([]float64, c.shortBack), make([]complex128, c.specLen), 1); err == nil {
				t.Error("accepted short dst")
			}
			if err := p.ForwardReal(make([]complex128, c.specLen), make([]float64, c.realLen), 0); err == nil {
				t.Error("accepted count=0")
			}
			batches := len(c.dims) == 1
			err = p.ForwardReal(make([]complex128, 2*c.specLen), make([]float64, 2*c.realLen), 2)
			if (err == nil) != batches {
				t.Errorf("ForwardBatch of 2 grids returned %v", err)
			}
			err = p.InverseReal(make([]float64, 2*c.realLen), make([]complex128, 2*c.specLen), 2)
			if (err == nil) != batches {
				t.Errorf("InverseBatch of 2 grids returned %v", err)
			}
		})
	}
}

func TestPlanClosedRejects(t *testing.T) {
	p, _ := NewPlan(Config{}, true, 8)
	p.Close()
	p.Close() // idempotent
	if err := p.ForwardReal(make([]complex128, 5), make([]float64, 8), 1); err == nil {
		t.Error("closed plan accepted Forward")
	}
	p2, _ := NewPlan(Config{}, true, 2, 4)
	p2.Close()
	if err := p2.ForwardReal(make([]complex128, 6), make([]float64, 8), 1); err == nil {
		t.Error("closed 2D plan accepted Forward")
	}
}

// Property: spectrum of a real even sequence is real.
func TestRealEvenSpectrumReal(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(77))
	x := make([]float64, n)
	x[0] = rng.Float64()
	x[n/2] = rng.Float64()
	for i := 1; i < n/2; i++ {
		v := rng.Float64()
		x[i] = v
		x[n-i] = v
	}
	p, _ := NewPlan(Config{}, true, n)
	defer p.Close()
	spec := make([]complex128, p.SpectrumLen())
	if err := p.ForwardReal(spec, x, 1); err != nil {
		t.Fatal(err)
	}
	for k, c := range spec {
		if math.Abs(imag(c)) > 1e-10 {
			t.Fatalf("even sequence spectrum has imag %g at %d", imag(c), k)
		}
	}
}

// A run's Scale reaches every real graph once, wherever its last stage
// applies it: the 1D inverse's lone entangle stage, a compute leg, a fold
// store.
func TestRealGraphsApplyTheRunScale(t *testing.T) {
	p1, err1 := NewPlan(Config{}, true, 32)
	p2, err2 := NewPlan(Config{}, true, 16, 32)
	p3, err3 := NewPlan(Config{}, true, 8, 8, 16)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*Plan{p1, p2, p3} {
		defer p.Close()
		realN, specN := p.Len(), p.SpectrumLen()
		x := randReal(3, realN)
		spec := make([]complex128, specN)
		for i := range spec {
			spec[i] = complex(x[i%realN], x[(i+1)%realN])
		}
		var outs [2][]complex128
		var backs [2][]float64
		for i, scale := range []float64{0, 0.5} {
			outs[i], backs[i] = make([]complex128, specN), make([]float64, realN)
			err := p.run.Run(fwdGraph, stagegraph.Call{In: stagegraph.Endpoint{R: x},
				Out: stagegraph.Endpoint{C: outs[i]}, Sign: fft1d.Forward, Scale: scale, Count: 1})
			if err == nil {
				err = p.run.Run(invGraph, stagegraph.Call{In: stagegraph.Endpoint{C: spec},
					Out: stagegraph.Endpoint{R: backs[i]}, Sign: fft1d.Inverse, Scale: scale, Count: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range outs[0] {
			if outs[1][i] != outs[0][i]*0.5 {
				t.Fatalf("%d reals forward: scaled %v at %d, want %v", realN, outs[1][i], i, outs[0][i]*0.5)
			}
		}
		for i := range backs[0] {
			if backs[1][i] != backs[0][i]*0.5 {
				t.Fatalf("%d reals inverse: scaled %v at %d, want %v", realN, backs[1][i], i, backs[0][i]*0.5)
			}
		}
	}
}

// TestObservabilityRealBytesExact pins the telemetry contract: a fresh 2D
// plan's forward row stage loads exactly 8 B per real element per run, and
// the inverse row stage stores the same — the fused pack/unpack accounts
// real traffic at half the complex rate, with no rounding.
func TestObservabilityRealBytesExact(t *testing.T) {
	const n, m, runs = 8, 32, 3
	p, err := NewPlan(Config{}, true, n, m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(31, p.Len())
	spec := make([]complex128, p.SpectrumLen())
	back := make([]float64, p.Len())
	for r := 0; r < runs; r++ {
		if err := p.ForwardReal(spec, x, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.InverseReal(back, spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	fsnap := p.run.Obs(fwdGraph).Snapshot()
	if fsnap.Runs != runs {
		t.Fatalf("forward runs = %d, want %d", fsnap.Runs, runs)
	}
	wantReal := uint64(runs * n * m * 8)
	if got := fsnap.Stages[0].Load.Bytes; got != wantReal {
		t.Errorf("forward rows load bytes = %d, want exactly %d (8 B/real elem)", got, wantReal)
	}
	// The column stage streams the n×l packed complex grid: 16 B/elem.
	wantCols := uint64(runs * n * (m / 2) * 16)
	if got := fsnap.Stages[1].Store.Bytes; got != wantCols {
		t.Errorf("forward cols store bytes = %d, want exactly %d", got, wantCols)
	}
	isnap := p.run.Obs(invGraph).Snapshot()
	last := len(isnap.Stages) - 1
	if got := isnap.Stages[last].Store.Bytes; got != wantReal {
		t.Errorf("inverse rows store bytes = %d, want exactly %d (8 B/real elem)", got, wantReal)
	}
	// The entangle stage loads the full n×(m/2+1) spectrum at 16 B/elem.
	wantEnt := uint64(runs * n * (m/2 + 1) * 16)
	if got := isnap.Stages[0].Load.Bytes; got != wantEnt {
		t.Errorf("entangle load bytes = %d, want exactly %d", got, wantEnt)
	}
	merged := p.Observability()
	if merged.Runs != 2*runs {
		t.Errorf("merged runs = %d, want %d", merged.Runs, 2*runs)
	}
	if len(merged.Stages) != len(fsnap.Stages)+len(isnap.Stages) {
		t.Errorf("merged stage list not concatenated")
	}
}

func TestDescribeGraphMentionsBothDirections(t *testing.T) {
	p, _ := NewPlan(Config{}, true, 4, 4, 8)
	defer p.Close()
	s := p.DescribeGraph()
	for _, want := range []string{"x-rows", "y-pencils", "z-pencils", "entangle", "ix-rows"} {
		if !strings.Contains(s, want) {
			t.Errorf("DescribeGraph missing %q:\n%s", want, s)
		}
	}
}

// BenchmarkRFFTForward times the real forward transform at each rank.
func BenchmarkRFFTForward(b *testing.B) {
	for _, dims := range [][]int{{4096}, {256, 256}, {32, 32, 32}} {
		b.Run(fmt.Sprintf("%dD", len(dims)), func(b *testing.B) {
			p, _ := NewPlan(Config{}, true, dims...)
			defer p.Close()
			x := randReal(1, p.Len())
			dst := make([]complex128, p.SpectrumLen())
			b.SetBytes(int64(p.Len() * 8))
			for i := 0; i < b.N; i++ {
				if err := p.ForwardReal(dst, x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
