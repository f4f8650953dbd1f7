package repro

import (
	"fmt"
	"math"
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

// complexSide is one of the complex plans compared; forward lets the public
// handles (Forward) and the plan-package plans (Transform) share it.
type complexSide struct {
	name     string
	describe func() string
	forward  func(dst, src []complex128) error
	inverse  func(dst, src []complex128) error
}

func packageSide(name string, p *core.Plan) complexSide {
	return complexSide{name, p.DescribeGraph,
		func(dst, src []complex128) error { return p.Transform(dst, src, fft1d.Forward) }, p.Inverse}
}

func checkComplexDefaults(t *testing.T, shape string, elems int, sides ...complexSide) {
	t.Helper()
	x := cvec.Random(rand.New(rand.NewSource(int64(elems))), elems)
	var wantGraph string
	var wantFwd, wantInv []complex128
	for i, s := range sides {
		fwd, inv := make([]complex128, elems), make([]complex128, elems)
		if err := s.forward(fwd, x); err != nil {
			t.Fatal(err)
		}
		if err := s.inverse(inv, x); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantGraph, wantFwd, wantInv = s.describe(), fwd, inv
			continue
		}
		if got := s.describe(); got != wantGraph {
			t.Errorf("%s: %s graph\n%s\n%s graph\n%s", shape, s.name, got, sides[0].name, wantGraph)
		}
		if j := cvec.FirstBitDiff(fwd, wantFwd); j >= 0 {
			t.Errorf("%s: %s forward differs from %s at %d", shape, s.name, sides[0].name, j)
		}
		if j := cvec.FirstBitDiff(inv, wantInv); j >= 0 {
			t.Errorf("%s: %s inverse differs from %s at %d", shape, s.name, sides[0].name, j)
		}
	}
}

// served returns the plan serve.PlanCache builds for the shape (d2 = 0 for
// rank 2) from core.Default().
func served(t *testing.T, pc *serve.PlanCache, real bool, d0, d1, d2 int) *serve.Plan {
	t.Helper()
	key := serve.PlanKey{Rank: 3, D0: d0, D1: d1, D2: d2, Real: real, Cfg: core.Default()}
	if d2 == 0 {
		key.Rank = 2
	}
	p, release, err := pc.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return p
}

func TestPublicDefaultsAreThePlanPackageDefaults2D(t *testing.T) {
	pc := serve.NewPlanCache(4)
	defer pc.Purge()
	for _, d := range [][2]int{{64, 64}, {96, 40}, {20, 6}} {
		n, m := d[0], d[1]
		pub, err := NewFFT2D(n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		zero, err := core.NewPlan(core.Config{}, false, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer zero.Close()
		checkComplexDefaults(t, fmt.Sprintf("%dx%d", n, m), n*m,
			packageSide("zero Config", zero),
			packageSide("served Default()", served(t, pc, false, n, m, 0).Core()),
			complexSide{"public", pub.DescribeGraph, pub.Forward, pub.Inverse})
	}
}

func TestPublicDefaultsAreThePlanPackageDefaults3D(t *testing.T) {
	pc := serve.NewPlanCache(4)
	defer pc.Purge()
	for _, d := range [][3]int{{16, 16, 32}, {12, 8, 20}, {4, 6, 6}} {
		k, n, m := d[0], d[1], d[2]
		pub, err := NewFFT3D(k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		zero, err := core.NewPlan(core.Config{}, false, k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer zero.Close()
		checkComplexDefaults(t, fmt.Sprintf("%dx%dx%d", k, n, m), k*n*m,
			packageSide("zero Config", zero),
			packageSide("served Default()", served(t, pc, false, k, n, m).Core()),
			complexSide{"public", pub.DescribeGraph, pub.Forward, pub.Inverse})
	}
}

func TestPublicDefaultsAreThePlanPackageDefaultsReal3D(t *testing.T) {
	pc := serve.NewPlanCache(4)
	defer pc.Purge()
	for _, d := range [][3]int{{16, 16, 32}, {6, 10, 12}} {
		k, n, m := d[0], d[1], d[2]
		pub, err := NewRealFFT3D(k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		zero, err := core.NewPlan(core.Config{}, true, k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer zero.Close()
		rng := rand.New(rand.NewSource(int64(k*n*m + 1)))
		x := make([]float64, k*n*m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var wantGraph string
		var want []complex128
		var wantBack []float64
		for i, p := range []*core.Plan{zero, served(t, pc, true, k, n, m).Core(), pub.p} {
			side := [...]string{"zero Config", "served Default()", "public"}[i]
			got, back := make([]complex128, p.SpectrumLen()), make([]float64, len(x))
			if err := p.ForwardReal(got, x, 1); err != nil {
				t.Fatal(err)
			}
			if err := p.InverseReal(back, got, 1); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wantGraph, want, wantBack = p.DescribeGraph(), got, back
				continue
			}
			if g := p.DescribeGraph(); g != wantGraph {
				t.Errorf("%dx%dx%d: %s graph\n%s\nzero Config graph\n%s", k, n, m, side, g, wantGraph)
			}
			if j := cvec.FirstBitDiff(got, want); j >= 0 {
				t.Errorf("%dx%dx%d: %s real forward differs at %d", k, n, m, side, j)
			}
			for j := range back {
				if math.Float64bits(back[j]) != math.Float64bits(wantBack[j]) {
					t.Fatalf("%dx%dx%d: %s real inverse differs at %d", k, n, m, side, j)
				}
			}
		}
	}
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
