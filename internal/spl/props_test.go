package spl

import (
	"testing"
	"testing/quick"
)

// Property: L_m^{mn} · L_n^{mn} = I for arbitrary factorizations.
func TestQuickLInverse(t *testing.T) {
	f := func(rawM, rawN uint8) bool {
		m := int(rawM)%10 + 1
		n := int(rawN)%10 + 1
		return DenseEqual(Compose(L(m*n, m), L(m*n, n)), I(m*n), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: three rotations compose to the identity for arbitrary cubes.
func TestQuickRotationChain(t *testing.T) {
	f := func(rawK, rawN, rawM uint8) bool {
		k := int(rawK)%6 + 1
		n := int(rawN)%6 + 1
		m := int(rawM)%6 + 1
		return DenseEqual(Compose(K(n, m, k), K(m, k, n), K(k, n, m)), I(k*n*m), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Cooley–Tukey factorization equals the dense DFT for any
// small factor pair.
func TestQuickCooleyTukey(t *testing.T) {
	f := func(rawM, rawN uint8) bool {
		m := int(rawM)%6 + 2
		n := int(rawN)%6 + 2
		return DenseEqual(CooleyTukey(m, n), DFT(m*n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Kronecker mixed-product identity
// (A⊗B)(C⊗D) = (AC)⊗(BD) for diagonal/permutation operands.
func TestQuickMixedProduct(t *testing.T) {
	f := func(rawM, rawN uint8) bool {
		m := int(rawM)%5 + 2
		n := int(rawN)%5 + 2
		a, c := DFT(m), L(m, 1) // L(m,1) = I as permutation node
		b, d := L(n, n), DFT(n)
		lhs := Compose(Kron(a, b), Kron(c, d))
		rhs := Kron(Compose(a, c), Compose(b, d))
		return DenseEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
