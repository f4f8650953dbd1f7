// Package accuracy characterizes the numerical error of the fast
// transforms against a compensated-summation direct DFT oracle, in the
// tradition of FFTW's published accuracy benchmarks. Cooley–Tukey FFTs on
// random data should show L2 relative error growing like O(√log n)·ε; a
// defect in twiddle generation or butterfly algebra shows up as a much
// faster growth, so the suite doubles as a regression tripwire.
package accuracy

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"repro/internal/fft1d"
	"repro/internal/twiddle"
)

// oracleDFT computes the direct DFT with Kahan-compensated accumulation of
// the real and imaginary parts, giving an oracle roughly an order of
// magnitude more accurate than naive summation.
func oracleDFT(x []complex128, sign int) []complex128 {
	y := make([]complex128, len(x))
	for k := range y {
		y[k] = Bin(x, k, sign)
	}
	return y
}

// Bin returns bin k of the oracle DFT of x: O(n) per bin, so a test can
// spot-check a transform far too large for the full O(n²) oracle.
func Bin(x []complex128, k, sign int) complex128 {
	n := len(x)
	var sumR, sumI, compR, compI float64
	for l := 0; l < n; l++ {
		w := twiddle.Omega(n, k*l)
		if sign == fft1d.Inverse {
			w = complex(real(w), -imag(w))
		}
		p := w * x[l]
		// Kahan step for each component.
		tR := sumR + (real(p) - compR)
		compR = (tR - sumR) - (real(p) - compR)
		sumR = tR
		tI := sumI + (imag(p) - compI)
		compI = (tI - sumI) - (imag(p) - compI)
		sumI = tI
	}
	return complex(sumR, sumI)
}

// RelErr1D returns the L2 relative error of the fast 1D transform against
// the compensated oracle on deterministic pseudo-random input.
func RelErr1D(n int) float64 {
	rng := rand.New(rand.NewSource(int64(n)*2654435761 + 1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	want := oracleDFT(x, fft1d.Forward)
	got := make([]complex128, n)
	fft1d.NewPlan(n).Transform(got, x, fft1d.Forward)

	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	return math.Sqrt(num / den)
}

// Bound returns the acceptance threshold used by the tests and the report:
// C·√(log2 n)·ε with a generous constant.
func Bound(n int) float64 {
	const c = 48
	l := math.Log2(float64(n))
	if l < 1 {
		l = 1
	}
	return c * math.Sqrt(l) * 0x1p-52
}

// Report prints relative error against the bound for each size.
func Report(w io.Writer, sizes []int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\talgorithm\trel L2 error\tbound\tok")
	for _, n := range sizes {
		err := RelErr1D(n)
		b := Bound(n)
		fmt.Fprintf(tw, "%d\t%s\t%.2e\t%.2e\t%v\n",
			n, fft1d.NewPlan(n).Kind(), err, b, err <= b)
	}
	tw.Flush()
}
