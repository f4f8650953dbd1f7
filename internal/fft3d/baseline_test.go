package fft3d_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/spl"
)

// baselineCase runs one of the baselines the 3D pipeline is measured
// against on a k×n×m cube and compares it with the spl oracle.
func baselineCase(t *testing.T, run func(x []complex128, k, n, m, sign, workers int), k, n, m, workers, sign int) {
	t.Helper()
	f := spl.DFT3D(k, n, m)
	if sign == fft1d.Inverse {
		f = spl.Compose(spl.Kron(spl.IDFT(k), spl.I(n*m)), spl.KronAll(spl.I(k), spl.IDFT(n), spl.I(m)),
			spl.Kron(spl.I(k*n), spl.IDFT(m)))
	}
	x := cvec.Random(rand.New(rand.NewSource(int64(k*100+n*10+m+sign))), k*n*m)
	want := spl.Eval(f, x)
	got := append([]complex128(nil), x...)
	run(got, k, n, m, sign, workers)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(k*n*m) {
		t.Errorf("%dx%dx%d workers=%d sign=%d: diff %g", k, n, m, workers, sign, d)
	}
}

func TestPencilMatchesReference(t *testing.T) {
	baselineCase(t, bench.Pencil3D, 4, 4, 4, 1, fft1d.Forward)
	baselineCase(t, bench.Pencil3D, 8, 8, 8, 3, fft1d.Forward)
	baselineCase(t, bench.Pencil3D, 2, 8, 16, 2, fft1d.Inverse)
	baselineCase(t, bench.Pencil3D, 5, 3, 6, 4, fft1d.Forward)
}

func TestSlabMatchesReference(t *testing.T) {
	baselineCase(t, bench.Slab3D, 4, 8, 8, 1, fft1d.Forward)
	baselineCase(t, bench.Slab3D, 8, 4, 16, 3, fft1d.Forward)
	baselineCase(t, bench.Slab3D, 2, 16, 8, 2, fft1d.Inverse)
}
