package main

import (
	"fmt"
	"math"
	"math/cmplx"
)

// roundTripTol is the largest max-relative round-trip error an op may show
// and still count as correct.
const roundTripTol = 1e-12

// maxRelErr returns max|got−want| / max|want|.
func maxRelErr(got, want []complex128) float64 {
	var num, den float64
	for i, w := range want {
		d := got[i] - w
		num = max(num, real(d)*real(d)+imag(d)*imag(d))
		den = max(den, real(w)*real(w)+imag(w)*imag(w))
	}
	return math.Sqrt(num / den)
}

func maxRelErrReal(got, want []float64) float64 {
	var num, den float64
	for i, w := range want {
		num = max(num, math.Abs(got[i]-w))
		den = max(den, math.Abs(w))
	}
	return num / den
}

// omega returns exp(-2πi·(p mod n)/n), reducing the exponent in integers so
// the angle stays accurate for large p. Independent of internal/twiddle on
// purpose: the spot check must not share tables with the code it checks.
func omega(n, p int) complex128 {
	s, c := math.Sincos(-2 * math.Pi * float64(p%n) / float64(n))
	return complex(c, s)
}

// dftBin evaluates one output bin of the forward DFT of the row-major
// dims[0]×dims[1]×dims[2] array directly from the definition — O(N), with
// the innermost twiddle factored two-level (x = hi·B + lo) so a 2²⁴-point
// row needs two 4096-entry tables rather than one of 2²⁴. at reads element
// i of the input (complex or real). It also returns Σ|x|, the scale the
// caller's tolerance is relative to.
func dftBin(at func(i int) complex128, dims, bin [3]int) (sum complex128, l1 float64) {
	k, n, m := dims[0], dims[1], dims[2]
	b := min(m, 4096)
	lo := make([]complex128, b)
	for x := range lo {
		lo[x] = omega(m, bin[2]*x)
	}
	hi := make([]complex128, (m+b-1)/b)
	for x := range hi {
		hi[x] = omega(m, bin[2]*x*b)
	}
	for z := 0; z < k; z++ {
		wz := omega(k, bin[0]*z)
		for y := 0; y < n; y++ {
			wzy := wz * omega(n, bin[1]*y)
			row := (z*n + y) * m
			var acc complex128
			for h := range hi {
				var part complex128
				for x := 0; x < b && h*b+x < m; x++ {
					v := at(row + h*b + x)
					part += v * lo[x]
					l1 += math.Abs(real(v)) + math.Abs(imag(v))
				}
				acc += part * hi[h]
			}
			sum += acc * wzy
		}
	}
	return sum, l1
}

// spotCheck compares 4 seeded bins of a forward spectrum against dftBin.
// specAt maps a bin to the spectrum's value (the caller knows its layout);
// lastLimit bounds the innermost bin index (m for complex, m/2+1 for a
// Hermitian half spectrum).
func spotCheck(at func(i int) complex128, specAt func(bin [3]int) complex128, dims [3]int, lastLimit int, seed int64) error {
	r := newRNG(seed, 0xb175)
	for i := 0; i < 4; i++ {
		bin := [3]int{r.intn(dims[0]), r.intn(dims[1]), r.intn(lastLimit)}
		want, l1 := dftBin(at, dims, bin)
		got := specAt(bin)
		// Direct summation carries ~ε·N·rms of rounding; 1e-10·Σ|x| is two
		// orders above that and six below the size of a wrong bin.
		if cmplx.Abs(got-want) > 1e-10*l1 {
			return fmt.Errorf("bin %v: got %v, direct DFT %v", bin, got, want)
		}
	}
	return nil
}

// firstDiff returns the index of the first element where a and b differ
// bitwise, or -1.
func firstDiff(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
