package spl

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

const tol = 1e-9

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

// --- Table I: each construct must match its pseudo-code loop. ---

func TestTableIRowProduct(t *testing.T) {
	// y = (A_n B_n) x  ⇔  t = B x; y = A t.
	a, b := DFT(6), TwiddleDiag(2, 3)
	x := randVec(1, 6)
	want := Eval(a, Eval(b, x))
	got := Eval(Compose(a, b), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("Compose does not match sequential application")
	}
}

func TestTableIRowIKronB(t *testing.T) {
	// y = (I_m ⊗ B_n) x ⇔ for i: y[i*n : i*n+n] = B x[i*n : i*n+n].
	const m, n = 4, 5
	b := DFT(n)
	x := randVec(2, m*n)
	want := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		copy(want[i*n:(i+1)*n], Eval(b, x[i*n:(i+1)*n]))
	}
	got := Eval(Kron(I(m), b), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("I ⊗ B does not match the Table I loop")
	}
}

func TestTableIRowAKronI(t *testing.T) {
	// y = (A_m ⊗ I_n) x ⇔ for i: y[i : n : i+m*n-n] = A x[i : n : ...].
	const m, n = 5, 4
	a := DFT(m)
	x := randVec(3, m*n)
	want := make([]complex128, m*n)
	sub := make([]complex128, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			sub[j] = x[i+j*n]
		}
		out := Eval(a, sub)
		for j := 0; j < m; j++ {
			want[i+j*n] = out[j]
		}
	}
	got := Eval(Kron(a, I(n)), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("A ⊗ I does not match the Table I loop")
	}
}

func TestTableIRowDiag(t *testing.T) {
	d := []complex128{1, 2i, -1, 3}
	x := randVec(4, 4)
	got := Eval(Diag(d), x)
	for i := range x {
		if cvec.MaxDiff(cvec.Vec{got[i]}, cvec.Vec{d[i] * x[i]}) > tol {
			t.Fatal("Diag does not scale elementwise")
		}
	}
}

func TestTableIRowL(t *testing.T) {
	// y = L_m^{mn} x ⇔ for i<m, j<n: y[i + m*j] = x[n*i + j].
	const m, n = 3, 4
	x := randVec(5, m*n)
	want := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want[i+m*j] = x[n*i+j]
		}
	}
	// Table I names this L_m^{mn}; under the paper's §II-C definition
	// (L_n^{mn}: in+j → jm+i with i<m, j<n) that is our L(m*n, n).
	got := Eval(L(m*n, n), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("L does not match the Table I loop")
	}
}

func TestTableIRowLKronI(t *testing.T) {
	// y = (L_m^{mn} ⊗ I_k) x: same as above at block granularity k.
	const m, n, k = 3, 4, 2
	x := randVec(6, m*n*k)
	want := make([]complex128, m*n*k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			copy(want[k*(i+m*j):k*(i+m*j)+k], x[k*(n*i+j):k*(n*i+j)+k])
		}
	}
	got := Eval(Kron(L(m*n, n), I(k)), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("L ⊗ I does not match the Table I loop")
	}
}

// --- §II-C identities. ---

func TestLInverseIdentity(t *testing.T) {
	// L_m^{mn} L_n^{mn} = I_{mn}.
	for _, c := range []struct{ m, n int }{{2, 3}, {4, 4}, {5, 2}, {8, 4}} {
		mn := c.m * c.n
		f := Compose(L(mn, c.m), L(mn, c.n))
		if !DenseEqual(f, I(mn), tol) {
			t.Errorf("L_%d^{%d} L_%d^{%d} != I", c.m, mn, c.n, mn)
		}
	}
}

func TestCommutationTheorem(t *testing.T) {
	// A_m ⊗ B_n = L_m^{mn} (B_n ⊗ A_m) L_n^{mn}.
	a, b := DFT(3), DFT(4)
	if !DenseEqual(Kron(a, b), Compose(L(12, 3), Kron(b, a), L(12, 4)), tol) {
		t.Fatal("commutation theorem violated")
	}
	d := Diag([]complex128{1, 2, 3i})
	if !DenseEqual(Kron(d, a), Compose(L(9, 3), Kron(a, d), L(9, 3)), tol) {
		t.Fatal("commutation theorem violated for diag ⊗ DFT")
	}
}

func TestRectIdentityShapes(t *testing.T) {
	// I_{m×n} embeds (m>n) or truncates (m<n).
	x := []complex128{1, 2, 3}
	up := Eval(RectI(5, 3), x)
	want := []complex128{1, 2, 3, 0, 0}
	if cvec.MaxDiff(cvec.Vec(up), cvec.Vec(want)) > 0 {
		t.Fatalf("RectI(5,3): got %v", up)
	}
	down := Eval(RectI(2, 3), x)
	if down[0] != 1 || down[1] != 2 || len(down) != 2 {
		t.Fatalf("RectI(2,3): got %v", down)
	}
	if RectI(3, 3).String() != "I_3" {
		t.Fatal("RectI(n,n) should collapse to I_n")
	}
}

// --- §III-B window matrices. ---

func TestSGWindows(t *testing.T) {
	const n, b = 12, 4
	x := randVec(7, b)
	for i := 0; i < n/b; i++ {
		y := Eval(S(n, b, i), x)
		for j := 0; j < n; j++ {
			want := complex128(0)
			if j >= i*b && j < (i+1)*b {
				want = x[j-i*b]
			}
			if y[j] != want {
				t.Fatalf("S(%d,%d,%d)[%d] = %v, want %v", n, b, i, j, y[j], want)
			}
		}
		// G is the transpose: G·S = I_b.
		back := Eval(G(n, b, i), y)
		if cvec.MaxDiff(cvec.Vec(back), cvec.Vec(x)) > 0 {
			t.Fatalf("G(S(x)) != x for window %d", i)
		}
	}
}

func TestWindowsTileIdentity(t *testing.T) {
	// Σ_i S_{n,b,i} G_{n,b,i} = I_n (the sliding windows tile the vector).
	const n, b = 8, 2
	x := randVec(8, n)
	sum := make([]complex128, n)
	for i := 0; i < n/b; i++ {
		part := Eval(S(n, b, i), Eval(G(n, b, i), x))
		for j := range sum {
			sum[j] += part[j]
		}
	}
	if cvec.MaxDiff(cvec.Vec(sum), cvec.Vec(x)) > tol {
		t.Fatal("S·G windows do not tile the identity")
	}
}

// --- DFT factorizations. ---

func TestCooleyTukeyEqualsDFT(t *testing.T) {
	for _, c := range []struct{ m, n int }{{2, 2}, {2, 4}, {4, 4}, {3, 5}, {8, 2}} {
		if !DenseEqual(CooleyTukey(c.m, c.n), DFT(c.m*c.n), tol) {
			t.Errorf("CT(%d,%d) != DFT_%d", c.m, c.n, c.m*c.n)
		}
	}
}

func TestDFT2DFormsAgree(t *testing.T) {
	for _, c := range []struct{ n, m int }{{4, 4}, {2, 8}, {4, 8}, {3, 6}} {
		base := DFT2D(c.n, c.m)
		if !DenseEqual(DFT2DTransposed(c.n, c.m), base, tol) {
			t.Errorf("transposed 2D form differs for %dx%d", c.n, c.m)
		}
	}
	// Blocked form with μ=2 (requires μ | m).
	if !DenseEqual(DFT2DBlocked(4, 8, 2), DFT2D(4, 8), tol) {
		t.Error("blocked 2D form differs for 4x8 μ=2")
	}
	if !DenseEqual(DFT2DBlocked(2, 4, 4), DFT2D(2, 4), tol) {
		t.Error("blocked 2D form differs for 2x4 μ=4 (μ=m)")
	}
}

func TestDFT3DFormsAgree(t *testing.T) {
	base := DFT3D(2, 4, 4)
	if !DenseEqual(DFT3DRotated(2, 4, 4), base, tol) {
		t.Error("rotated 3D form differs for 2x4x4")
	}
	if !DenseEqual(DFT3DBlocked(2, 4, 4, 2), base, tol) {
		t.Error("blocked 3D form (μ=2) differs for 2x4x4")
	}
	base2 := DFT3D(3, 2, 4)
	if !DenseEqual(DFT3DRotated(3, 2, 4), base2, tol) {
		t.Error("rotated 3D form differs for 3x2x4")
	}
	if !DenseEqual(DFT3DBlocked(3, 2, 4, 4), base2, tol) {
		t.Error("blocked 3D form (μ=m) differs for 3x2x4")
	}
}

func TestKRotationDefinition(t *testing.T) {
	// K_m^{k,n} = (L_m^{mk} ⊗ I_n)(I_k ⊗ L_m^{mn}).
	const k, n, m = 3, 4, 2
	viaDef := Compose(
		Kron(L(m*k, m), I(n)),
		Kron(I(k), L(m*n, m)),
	)
	if !DenseEqual(K(k, n, m), viaDef, tol) {
		t.Fatal("K does not match its defining factorization")
	}
}

func TestKRotationPointwise(t *testing.T) {
	// out[x][z][y] = in[z][y][x] per Fig. 5.
	const k, n, m = 2, 3, 4
	x := randVec(9, k*n*m)
	y := Eval(K(k, n, m), x)
	for z := 0; z < k; z++ {
		for yy := 0; yy < n; yy++ {
			for xx := 0; xx < m; xx++ {
				if y[(xx*k+z)*n+yy] != x[(z*n+yy)*m+xx] {
					t.Fatalf("K rotation wrong at (%d,%d,%d)", z, yy, xx)
				}
			}
		}
	}
}

func TestThreeRotationsRestoreLayout(t *testing.T) {
	// K_k^{n,m} · K_n^{m,k} · K_m^{k,n} = I (three stage rotations bring
	// the cube back to its original layout).
	const k, n, m = 2, 3, 4
	f := Compose(K(n, m, k), K(m, k, n), K(k, n, m))
	if !DenseEqual(f, I(k*n*m), tol) {
		t.Fatal("three rotations do not compose to the identity")
	}
}

// --- IDFT and misc. ---

func TestIDFTInvertsDFT(t *testing.T) {
	const n = 12
	x := randVec(10, n)
	y := Eval(Compose(IDFT(n), DFT(n)), x)
	for i := range y {
		y[i] /= complex(float64(n), 0)
	}
	if cvec.MaxDiff(cvec.Vec(y), cvec.Vec(x)) > tol {
		t.Fatal("IDFT·DFT/n != I")
	}
}

func TestDFTMatchesNaive(t *testing.T) {
	x := randVec(11, 9)
	want := kernels.NaiveDFT(x, kernels.Forward)
	got := Eval(DFT(9), x)
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
		t.Fatal("DFT node disagrees with naive DFT")
	}
}

// --- Validation and plumbing. ---

func TestConstructorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { I(0) },
		func() { RectI(0, 1) },
		func() { Diag(nil) },
		func() { L(12, 5) },
		func() { L(0, 1) },
		func() { K(0, 1, 1) },
		func() { S(8, 3, 0) },
		func() { S(8, 2, 4) },
		func() { G(8, 16, 0) },
		func() { DFT(0) },
		func() { IDFT(-1) },
		func() { Compose() },
		func() { Compose(DFT(4), DFT(8)) },
		func() { KronAll() },
		func() { Perm([]int{0, 0}, "bad") },
		func() { Perm([]int{1, 2}, "bad") },
		func() { DFT2DBlocked(4, 6, 4) },
		func() { DFT3DBlocked(2, 2, 6, 4) },
		func() { I(4).Apply(make([]complex128, 3), make([]complex128, 4)) },
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

func TestStringForms(t *testing.T) {
	cases := map[string]Formula{
		"I_8":           I(8),
		"DFT_16":        DFT(16),
		"L^{12}_3":      L(12, 3),
		"K_4^{2,3}":     K(2, 3, 4),
		"S_{8,2,1}":     S(8, 2, 1),
		"G_{8,2,3}":     G(8, 2, 3),
		"D_4^{8}":       TwiddleDiag(2, 4),
		"(I_2 ⊗ DFT_4)": Kron(I(2), DFT(4)),
		"(DFT_4 · I_4)": Compose(DFT(4), I(4)),
		"I_{3x2}":       RectI(3, 2),
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String: got %q, want %q", got, want)
		}
	}
}

func TestGeneralKron(t *testing.T) {
	// Generic (non-identity ⊗ non-identity) against the dense definition
	// [a_{kl}·B].
	a, b := DFT(3), DFT(2)
	da, db := Dense(a), Dense(b)
	dk := Dense(Kron(a, b))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := da[i/2][j/2] * db[i%2][j%2]
			d := dk[i][j] - want
			if real(d)*real(d)+imag(d)*imag(d) > tol*tol {
				t.Fatalf("Kron dense mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: L(mn, n) is a bijection for many shapes (permutation validity is
// enforced in the constructor, so construction itself is the test).
func TestQuickLValidPermutations(t *testing.T) {
	for m := 1; m <= 12; m++ {
		for n := 1; n <= 12; n++ {
			_ = L(m*n, n)
			_ = K(m, n, 3)
		}
	}
}
