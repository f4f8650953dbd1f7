package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

func TestPublicFFT1DRoundTrip(t *testing.T) {
	p, err := NewFFT1D(1 << 13)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, p, 1, 1e-8)
}

func TestPublicFFT1DMatchesNaiveSmall(t *testing.T) {
	p, err := NewFFT1D(64)
	if err != nil {
		t.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(2)), 64)
	want := kernels.NaiveDFT(x, kernels.Forward)
	got := make([]complex128, 64)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9 {
		t.Fatalf("diff %g", d)
	}
}

func TestPublicRealFFT3D(t *testing.T) {
	p, err := NewRealFFT3D(8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.RealLen() != 1024 || p.SpectrumLen() != 8*8*9 {
		t.Fatal("lengths wrong")
	}
	if k, n, m := p.Dims(); k != 8 || n != 8 || m != 16 {
		t.Fatal("Dims wrong")
	}
	if p.String() != "RealFFT3D(8×8×16)" {
		t.Fatalf("String = %q", p.String())
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, p.RealLen())
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	spec := make([]complex128, p.SpectrumLen())
	if err := p.Forward(spec, x); err != nil {
		t.Fatal(err)
	}
	back := make([]float64, p.RealLen())
	if err := p.Inverse(back, spec); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatalf("round trip off at %d", i)
		}
	}
}

func TestPublicRealFFT3DValidation(t *testing.T) {
	if _, err := NewRealFFT3D(4, 4, 7); err == nil {
		t.Error("accepted odd m")
	}
	if _, err := NewFFT1D(0); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewFFT1D(64, WithCacheline(0)); err == nil {
		t.Error("accepted bad option")
	}
}
