package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/rfft"
)

// Drift guard: a plan built through the public constructors with no options
// is the plan the plan packages build from their zero-value Options — the
// one internal/bench and every BENCH_*.json measure. The compiled graphs
// must render identically (DescribeGraph carries the stage geometry and
// iteration counts, μ as the rotation block length, each stage's fold and
// its store tier) and the outputs must agree bit for bit, so the public
// path cannot silently leave the tuned path again.

// publicComplex and packageComplex are the two sides of the complex guard:
// a root-package plan and the plan-package plan it must equal.
type publicComplex interface {
	DescribeGraph() string
	Forward(dst, src []complex128) error
	Inverse(dst, src []complex128) error
	Close()
}

type packageComplex interface {
	DescribeGraph() string
	Transform(dst, src []complex128, sign int) error
	Close()
}

func checkComplexDefaults(t *testing.T, shape string, elems int, pub publicComplex, ref packageComplex) {
	t.Helper()
	defer pub.Close()
	defer ref.Close()
	if got, want := pub.DescribeGraph(), ref.DescribeGraph(); got != want {
		t.Errorf("%s: public graph\n%s\nplan-package graph\n%s", shape, got, want)
	}
	x := cvec.Random(rand.New(rand.NewSource(int64(elems))), elems)
	got, want := make([]complex128, elems), make([]complex128, elems)
	if err := pub.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Errorf("%s: forward differs at %d", shape, i)
	}
	if err := pub.Inverse(got, x); err != nil {
		t.Fatal(err)
	}
	if err := ref.Transform(want, x, fft1d.Inverse); err != nil {
		t.Fatal(err)
	}
	fft1d.Scale(want, 1/float64(elems))
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Errorf("%s: inverse differs at %d", shape, i)
	}
}

func TestPublicDefaultsAreThePlanPackageDefaults2D(t *testing.T) {
	for _, d := range [][2]int{{64, 64}, {96, 40}, {20, 6}} {
		n, m := d[0], d[1]
		pub, err := NewFFT2D(n, m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fft2d.NewPlan(n, m, fft2d.Options{Strategy: fft2d.DoubleBuf})
		if err != nil {
			t.Fatal(err)
		}
		checkComplexDefaults(t, fmt.Sprintf("%dx%d", n, m), n*m, pub, ref)
	}
}

func TestPublicDefaultsAreThePlanPackageDefaults3D(t *testing.T) {
	for _, d := range [][3]int{{16, 16, 32}, {12, 8, 20}, {4, 6, 6}} {
		k, n, m := d[0], d[1], d[2]
		pub, err := NewFFT3D(k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fft3d.NewPlan(k, n, m, fft3d.Options{Strategy: fft3d.DoubleBuf})
		if err != nil {
			t.Fatal(err)
		}
		checkComplexDefaults(t, fmt.Sprintf("%dx%dx%d", k, n, m), k*n*m, pub, ref)
	}
}

func TestPublicDefaultsAreThePlanPackageDefaultsReal3D(t *testing.T) {
	for _, d := range [][3]int{{16, 16, 32}, {6, 10, 12}} {
		k, n, m := d[0], d[1], d[2]
		pub, err := NewRealFFT3D(k, n, m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rfft.NewPlan3D(k, n, m, rfft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pub.DescribeGraph(), ref.DescribeGraph(); got != want {
			t.Errorf("%dx%dx%d: public graph\n%s\nplan-package graph\n%s", k, n, m, got, want)
		}
		rng := rand.New(rand.NewSource(int64(k*n*m + 1)))
		x := make([]float64, k*n*m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := make([]complex128, pub.SpectrumLen()), make([]complex128, ref.SpectrumLen())
		if err := pub.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if err := ref.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		if i := cvec.FirstBitDiff(got, want); i >= 0 {
			t.Errorf("%dx%dx%d: real forward differs at %d", k, n, m, i)
		}
		back, backRef := make([]float64, len(x)), make([]float64, len(x))
		if err := pub.Inverse(back, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Inverse(backRef, want); err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Float64bits(back[i]) != math.Float64bits(backRef[i]) {
				t.Fatalf("%dx%dx%d: real inverse differs at %d", k, n, m, i)
			}
		}
		pub.Close()
		ref.Close()
	}
}

// Explicit options still win over the plan-package defaults, and the radix
// cap accepts what the sub-plans accept (16 is what 0 selects).
func TestExplicitOptionsOverrideDefaults(t *testing.T) {
	p, err := NewFFT2D(64, 64, WithCacheline(4), WithBufferElems(1<<9), WithRadix(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fft2d.NewPlan(64, 64, fft2d.Options{Strategy: fft2d.DoubleBuf,
		Mu: 4, BufferElems: 1 << 9, Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.DescribeGraph(), ref.DescribeGraph(); got != want {
		t.Errorf("explicit options: public graph\n%s\nwant\n%s", got, want)
	}
	p.Close()
	ref.Close()

	x := cvec.Random(rand.New(rand.NewSource(9)), 32*32)
	outs := [2][]complex128{}
	for i, r := range []int{0, 16} {
		p, err := NewFFT2D(32, 32, WithRadix(r))
		if err != nil {
			t.Fatalf("WithRadix(%d): %v", r, err)
		}
		outs[i] = make([]complex128, len(x))
		if err := p.Forward(outs[i], x); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	if i := cvec.FirstBitDiff(outs[0], outs[1]); i >= 0 {
		t.Errorf("WithRadix(16) is not the default chain: differs at %d", i)
	}
	if _, err := NewFFT2D(32, 32, WithRadix(3)); err == nil {
		t.Error("WithRadix(3) accepted")
	}
	if _, err := NewFFT2D(8, 6, WithCacheline(4)); err == nil {
		t.Error("explicit μ=4 accepted for m=6")
	}
}
