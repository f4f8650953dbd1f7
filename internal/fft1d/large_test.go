package fft1d_test

// External test package: internal/accuracy imports fft1d.

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// TestLargeSizes covers the plan past L2, where every public and served 1D
// transform runs it too: a power of two just past 2¹⁶ and one well past it,
// a size with an odd factor, and a prime (a Bluestein stage). Round trip to
// 1e-12 relative, forward spot-checked against the compensated direct DFT at
// a handful of bins.
func TestLargeSizes(t *testing.T) {
	for _, c := range []struct {
		n    int
		kind string
	}{
		{1 << 17, "stockham[8 16 16 16 4]"},
		{1 << 20, "stockham[16 16 16 16 16]"},
		{3 << 18, "stockham[3 16 16 16 16 4]"},
		{65537, "stockham[65537]"},
	} {
		n := c.n
		p := fft1d.NewPlan(n)
		if p.Kind() != c.kind {
			t.Errorf("n=%d planned as %s, want %s", n, p.Kind(), c.kind)
		}
		x := cvec.Random(rand.New(rand.NewSource(int64(n))), n)
		var norm, peak float64
		for _, v := range x {
			norm += real(v)*real(v) + imag(v)*imag(v)
			peak = math.Max(peak, cmplx.Abs(v))
		}
		norm = math.Sqrt(norm)

		y := make([]complex128, n)
		p.Transform(y, x, fft1d.Forward)
		for _, k := range []int{0, 1, n / 3, n / 2, n - 1} {
			want := accuracy.Bin(x, k, fft1d.Forward)
			if d := cmplx.Abs(y[k] - want); d > 1e-12*norm {
				t.Errorf("n=%d bin %d: off the direct DFT by %g (‖x‖ = %g)", n, k, d, norm)
			}
		}

		z := make([]complex128, n)
		p.Transform(z, y, fft1d.Inverse)
		fft1d.Scale(z, 1/float64(n))
		if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-12*peak {
			t.Errorf("n=%d round trip off by %g (relative %g)", n, d, d/peak)
		}
	}
}
