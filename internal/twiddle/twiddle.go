// Package twiddle computes the roots of unity and twiddle-factor diagonals
// used by Cooley–Tukey FFT factorizations.
//
// In the paper's SPL notation these are the D_n^{mn} diagonal matrices in
//
//	DFT_mn = (DFT_m ⊗ I_n) · D_n^{mn} · (I_m ⊗ DFT_n) · L_m^{mn}.
//
// D_n^{mn} is the diagonal of ω_{mn}^{i·j} values where the input is viewed
// as an m×n matrix with row index i and column index j.
package twiddle

import (
	"fmt"
	"math"
)

// Omega returns the primitive n-th root of unity ω_n^k = e^{-2πik/n} used by
// the forward DFT. Inverse transforms use the conjugate.
func Omega(n, k int) complex128 {
	// Reduce k mod n to keep the argument small and the result exact at
	// the quarter points.
	k %= n
	if k < 0 {
		k += n
	}
	switch 4 * k {
	case 0:
		return 1
	case n:
		return -1i
	case 2 * n:
		return -1
	case 3 * n:
		return 1i
	}
	a := -2 * math.Pi * float64(k) / float64(n)
	return complex(math.Cos(a), math.Sin(a))
}

// Diag returns the mn-element diagonal of D_n^{mn}: entry i*n+j holds
// ω_{mn}^{i·j} for 0 ≤ i < m, 0 ≤ j < n.
func Diag(m, n int) []complex128 {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("twiddle: Diag(%d, %d) with non-positive size", m, n))
	}
	d := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = Omega(m*n, i*j)
		}
	}
	return d
}

// Roots returns the n forward roots ω_n^0 … ω_n^{n-1}.
func Roots(n int) []complex128 {
	if n <= 0 {
		panic(fmt.Sprintf("twiddle: Roots(%d) with non-positive size", n))
	}
	r := make([]complex128, n)
	for k := range r {
		r[k] = Omega(n, k)
	}
	return r
}
