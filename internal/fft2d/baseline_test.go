package fft2d_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/spl"
)

// The pencil-pencil baseline the 2D pipeline is measured against computes
// the spl oracle's 2D DFT, across pool sizes 1–4.
func TestPencilMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m, workers int }{
		{8, 8, 1}, {16, 32, 2}, {32, 16, 4}, {5, 12, 3},
	} {
		x := cvec.Random(rand.New(rand.NewSource(int64(c.n+c.m))), c.n*c.m)
		want := spl.Eval(spl.DFT2D(c.n, c.m), x)
		got := append([]complex128(nil), x...)
		bench.Pencil2D(got, c.n, c.m, fft1d.Forward, c.workers)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(c.n*c.m) {
			t.Errorf("pencil %dx%d workers=%d: diff %g", c.n, c.m, c.workers, d)
		}
	}
}
