package twiddle

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestOmegaQuarterPointsExact(t *testing.T) {
	cases := []struct {
		n, k int
		want complex128
	}{
		{4, 0, 1}, {4, 1, -1i}, {4, 2, -1}, {4, 3, 1i},
		{8, 0, 1}, {8, 2, -1i}, {8, 4, -1}, {8, 6, 1i},
		{8, 8, 1}, {8, -2, 1i},
	}
	for _, c := range cases {
		if got := Omega(c.n, c.k); got != c.want {
			t.Errorf("Omega(%d, %d) = %v, want %v exactly", c.n, c.k, got, c.want)
		}
	}
}

func TestOmegaUnitModulus(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for k := 0; k < n; k++ {
			if d := math.Abs(cmplx.Abs(Omega(n, k)) - 1); d > 1e-15 {
				t.Fatalf("|Omega(%d,%d)| off unit circle by %g", n, k, d)
			}
		}
	}
}

// Property: ω_n^j · ω_n^k = ω_n^{j+k}.
func TestQuickOmegaGroupLaw(t *testing.T) {
	f := func(j, k uint8) bool {
		const n = 96
		lhs := Omega(n, int(j)) * Omega(n, int(k))
		rhs := Omega(n, int(j)+int(k))
		return cmplx.Abs(lhs-rhs) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiagValues(t *testing.T) {
	// D_2^{4}: m=2, n=2, entries ω_4^{i·j}.
	d := Diag(2, 2)
	want := []complex128{1, 1, 1, -1i}
	for i := range want {
		if cmplx.Abs(d[i]-want[i]) > 1e-15 {
			t.Fatalf("Diag(2,2)[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestDiagFirstRowAndColumnOnes(t *testing.T) {
	d := Diag(5, 7)
	for j := 0; j < 7; j++ {
		if d[j] != 1 {
			t.Fatalf("Diag(5,7) row 0 entry %d = %v, want 1", j, d[j])
		}
	}
	for i := 0; i < 5; i++ {
		if d[i*7] != 1 {
			t.Fatalf("Diag(5,7) column 0 entry %d = %v, want 1", i, d[i*7])
		}
	}
}

func TestRootsLengthAndPeriodicity(t *testing.T) {
	r := Roots(16)
	if len(r) != 16 {
		t.Fatalf("len(Roots(16)) = %d", len(r))
	}
	for k := 0; k < 16; k++ {
		prod := r[k]
		// ω^k raised to the 16/gcd power cycles; simplest check:
		// ω_16^k * ω_16^(16-k) == 1.
		if cmplx.Abs(prod*Omega(16, 16-k)-1) > 1e-14 {
			t.Fatalf("Roots(16)[%d] not inverse-paired", k)
		}
	}
}

func TestNonPositivePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Diag(0, 4) },
		func() { Diag(4, -1) },
		func() { Roots(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for non-positive size")
				}
			}()
			f()
		}()
	}
}
