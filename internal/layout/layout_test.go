package layout

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/spl"
)

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

// The elementwise stride permutation L is TransposeBlocked at μ = 1.
func TestTransposeMatchesSPL(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{
		{1, 1}, {2, 3}, {8, 8}, {33, 65}, {7, 128}, {100, 3},
	} {
		x := randVec(int64(c.rows*c.cols), c.rows*c.cols)
		want := spl.Eval(spl.L(c.rows*c.cols, c.cols), x)
		got := make([]complex128, len(x))
		TransposeBlocked(got, x, c.rows, c.cols, 1)
		if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) != 0 {
			t.Errorf("TransposeBlocked %dx%d μ=1 disagrees with L", c.rows, c.cols)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	const rows, cols = 37, 53
	x := randVec(3, rows*cols)
	y := make([]complex128, len(x))
	z := make([]complex128, len(x))
	TransposeBlocked(y, x, rows, cols, 1)
	TransposeBlocked(z, y, cols, rows, 1)
	if cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)) != 0 {
		t.Fatal("transpose twice is not the identity")
	}
}

func TestTransposeBlockedMatchesSPL(t *testing.T) {
	for _, c := range []struct{ rows, cols, mu int }{
		{2, 3, 4}, {8, 8, 2}, {5, 7, 8}, {16, 4, 1},
	} {
		total := c.rows * c.cols * c.mu
		x := randVec(int64(total), total)
		want := spl.Eval(spl.Kron(spl.L(c.rows*c.cols, c.cols), spl.I(c.mu)), x)
		got := make([]complex128, total)
		TransposeBlocked(got, x, c.rows, c.cols, c.mu)
		if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) != 0 {
			t.Errorf("TransposeBlocked %dx%d μ=%d disagrees with L ⊗ I", c.rows, c.cols, c.mu)
		}
	}
}

// At μ = 1 the blocked rotation is the paper's elementwise cube rotation
// K_m^{k,n}.
func TestRotate3DMatchesSPL(t *testing.T) {
	for _, c := range []struct{ k, n, m int }{
		{2, 3, 4}, {4, 4, 4}, {1, 5, 7}, {6, 2, 8},
	} {
		total := c.k * c.n * c.m
		x := randVec(int64(total), total)
		want := spl.Eval(spl.K(c.k, c.n, c.m), x)
		got := make([]complex128, total)
		Rotate3DBlocked(got, x, c.k, c.n, c.m, 1)
		if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) != 0 {
			t.Errorf("Rotate3DBlocked %dx%dx%d μ=1 disagrees with K", c.k, c.n, c.m)
		}
	}
}

func TestRotate3DThreeTimesIdentity(t *testing.T) {
	const k, n, mb, mu = 3, 4, 5, 2
	x := randVec(5, k*n*mb*mu)
	a := make([]complex128, len(x))
	b := make([]complex128, len(x))
	c := make([]complex128, len(x))
	Rotate3DBlocked(a, x, k, n, mb, mu) // → mb×k×n
	Rotate3DBlocked(b, a, mb, k, n, mu) // → n×mb×k
	Rotate3DBlocked(c, b, n, mb, k, mu) // → k×n×mb
	if cvec.MaxDiff(cvec.Vec(c), cvec.Vec(x)) != 0 {
		t.Fatal("three rotations did not restore the cube")
	}
}

func TestRotate3DBlockedMatchesSPL(t *testing.T) {
	for _, c := range []struct{ k, n, mb, mu int }{
		{2, 3, 4, 2}, {4, 4, 2, 4}, {3, 2, 5, 8},
	} {
		total := c.k * c.n * c.mb * c.mu
		x := randVec(int64(total), total)
		want := spl.Eval(spl.Kron(spl.K(c.k, c.n, c.mb), spl.I(c.mu)), x)
		got := make([]complex128, total)
		Rotate3DBlocked(got, x, c.k, c.n, c.mb, c.mu)
		if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) != 0 {
			t.Errorf("Rotate3DBlocked %dx%dx%d μ=%d disagrees with K ⊗ I",
				c.k, c.n, c.mb, c.mu)
		}
	}
}

func TestValidationPanics(t *testing.T) {
	for i, f := range []func(){
		func() { TransposeBlocked(make([]complex128, 12), make([]complex128, 11), 2, 3, 2) },
		func() { Rotate3DBlocked(make([]complex128, 24), make([]complex128, 23), 2, 3, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Benchmarks live in bench_test.go (32 B/element traffic accounting,
// kernel-vs-generic comparison, μ = 4 and μ = 8 sweeps).
