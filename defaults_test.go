package repro

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/serve"
)

// The zero-value contract: the zero core.Config is the product. The plan a
// plan package builds from it, the plan serve.PlanCache builds from
// core.Default() and the plan a public constructor builds with no options
// render the same DescribeGraph() (stage geometry and iteration counts, μ as
// the rotation block length, each stage's fold and its store tier) and agree
// bit for bit, so neither the public path nor the served one can leave the
// path the ruler measures.

// side is one of the plans compared: its graph, and its forward and inverse
// outputs on x through its own entry points (a real side reads x's real
// parts and inverts its own forward).
type side struct {
	name     string
	describe func() string
	run      func(x []complex128) (fwd, inv []complex128, err error)
}

func complexRun(fwd, inv func(dst, src []complex128) error) func([]complex128) ([]complex128, []complex128, error) {
	return func(x []complex128) ([]complex128, []complex128, error) {
		f, i := make([]complex128, len(x)), make([]complex128, len(x))
		return f, i, errors.Join(fwd(f, x), inv(i, x))
	}
}

func realRun(fwd func([]complex128, []float64) error, inv func([]float64, []complex128) error,
	spectrum int) func([]complex128) ([]complex128, []complex128, error) {
	return func(x []complex128) ([]complex128, []complex128, error) {
		re, back := make([]float64, len(x)), make([]float64, len(x))
		for i := range re {
			re[i] = real(x[i])
		}
		f := make([]complex128, spectrum)
		err := errors.Join(fwd(f, re), inv(back, f))
		i := make([]complex128, len(x))
		for j, v := range back {
			i[j] = complex(v, 0)
		}
		return f, i, err
	}
}

func planSide(name string, p *core.Plan, isReal bool) side {
	if isReal {
		return side{name, p.DescribeGraph, realRun(
			func(dst []complex128, src []float64) error { return p.ForwardReal(dst, src, 1) },
			func(dst []float64, src []complex128) error { return p.InverseReal(dst, src, 1) }, p.SpectrumLen())}
	}
	return side{name, p.DescribeGraph, complexRun(
		func(dst, src []complex128) error { return p.Transform(dst, src, fft1d.Forward) }, p.Inverse)}
}

// checkDefaults builds each shape of dims three ways — the zero Config, the
// served core.Default() and the public constructor with no options — and
// holds the second and third to the first's graph and output bits, forward
// and inverse, the public handle through its own Forward and Inverse.
func checkDefaults(t *testing.T, isReal bool, dims ...[]int) {
	pc := serve.NewPlanCache(4)
	defer pc.Purge()
	for _, d := range dims {
		zero, err := core.NewPlan(core.Config{}, isReal, d...)
		if err != nil {
			t.Fatal(err)
		}
		defer zero.Close()
		key := serve.PlanKey{Rank: len(d), D0: d[0], D1: d[1], Real: isReal, Cfg: core.Default()}
		if len(d) == 3 {
			key.D2 = d[2]
		}
		served, release, err := pc.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		sides := []side{planSide("zero Config", zero, isReal), planSide("served Default()", served.Core(), isReal)}
		switch {
		case isReal:
			f, err := NewRealFFT3D(d[0], d[1], d[2])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sides = append(sides, side{"public", f.DescribeGraph, realRun(f.Forward, f.Inverse, f.SpectrumLen())})
		case len(d) == 2:
			f, err := NewFFT2D(d[0], d[1])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sides = append(sides, side{"public", f.DescribeGraph, complexRun(f.Forward, f.Inverse)})
		default:
			f, err := NewFFT3D(d[0], d[1], d[2])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sides = append(sides, side{"public", f.DescribeGraph, complexRun(f.Forward, f.Inverse)})
		}
		x := cvec.Random(rand.New(rand.NewSource(int64(zero.Len()))), zero.Len())
		var wantFwd, wantInv []complex128
		for i, s := range sides {
			fwd, inv, err := s.run(x)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wantFwd, wantInv = fwd, inv
				continue
			}
			if got, want := s.describe(), zero.DescribeGraph(); got != want {
				t.Errorf("%v: %s graph\n%s\nzero Config graph\n%s", d, s.name, got, want)
			}
			if j := cvec.FirstBitDiff(fwd, wantFwd); j >= 0 {
				t.Errorf("%v: %s forward differs from the zero Config's at %d", d, s.name, j)
			}
			if j := cvec.FirstBitDiff(inv, wantInv); j >= 0 {
				t.Errorf("%v: %s inverse differs from the zero Config's at %d", d, s.name, j)
			}
		}
	}
}

func TestPublicDefaultsAreThePlanPackageDefaults2D(t *testing.T) {
	checkDefaults(t, false, []int{64, 64}, []int{96, 40}, []int{20, 6})
}

func TestPublicDefaultsAreThePlanPackageDefaults3D(t *testing.T) {
	checkDefaults(t, false, []int{16, 16, 32}, []int{12, 8, 20}, []int{4, 6, 6})
}

func TestPublicDefaultsAreThePlanPackageDefaultsReal3D(t *testing.T) {
	checkDefaults(t, true, []int{16, 16, 32}, []int{6, 10, 12})
}

// Explicit options still win over the plan-package defaults.
func TestExplicitOptionsOverrideDefaults(t *testing.T) {
	p, err := NewFFT2D(64, 64, WithCacheline(4), WithBufferElems(1<<9))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewPlan(core.Config{Mu: 4, BufferElems: 1 << 9}, false, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.DescribeGraph(), ref.DescribeGraph(); got != want {
		t.Errorf("explicit options: public graph\n%s\nwant\n%s", got, want)
	}
	p.Close()
	ref.Close()
	if _, err := NewFFT2D(8, 6, WithCacheline(4)); err == nil {
		t.Error("explicit μ=4 accepted for m=6")
	}
}
