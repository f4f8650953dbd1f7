// Package cvec provides complex-vector storage utilities shared by all FFT
// code in this repository.
//
// Vectors are complex interleaved: the natural Go []complex128 layout where
// the real and imaginary parts of each element are adjacent in memory.
package cvec

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a complex-interleaved vector.
type Vec []complex128

// New returns a zeroed complex-interleaved vector of length n.
func New(n int) Vec { return make(Vec, n) }

// Random returns a vector of n pseudo-random complex values drawn uniformly
// from the unit square, using rng for reproducibility.
func Random(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Scale multiplies every element of v by s in place.
func (v Vec) Scale(s complex128) {
	for i := range v {
		v[i] *= s
	}
}

// AXPY computes v[i] += a*x[i] for all i. The vectors must have equal length.
func (v Vec) AXPY(a complex128, x Vec) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("cvec: AXPY length mismatch %d != %d", len(v), len(x)))
	}
	for i := range v {
		v[i] += a * x[i]
	}
}

// Dot returns the unconjugated dot product sum_i v[i]*x[i].
func (v Vec) Dot(x Vec) complex128 {
	if len(v) != len(x) {
		panic(fmt.Sprintf("cvec: Dot length mismatch %d != %d", len(v), len(x)))
	}
	var s complex128
	for i := range v {
		s += v[i] * x[i]
	}
	return s
}

// L2 returns the Euclidean norm of v.
func (v Vec) L2() float64 {
	var s float64
	for _, c := range v {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum complex modulus over v.
func (v Vec) MaxAbs() float64 {
	var m float64
	for _, c := range v {
		if a := cmplxAbs(c); a > m {
			m = a
		}
	}
	return m
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// MaxDiff returns the maximum elementwise modulus of v-w.
func MaxDiff(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cvec: MaxDiff length mismatch %d != %d", len(v), len(w)))
	}
	var m float64
	for i := range v {
		if d := cmplxAbs(v[i] - w[i]); d > m {
			m = d
		}
	}
	return m
}

// RelErr returns the L2 relative error |v-w| / max(|w|, 1e-300).
func RelErr(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cvec: RelErr length mismatch %d != %d", len(v), len(w)))
	}
	var num, den float64
	for i := range v {
		d := v[i] - w[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(w[i])*real(w[i]) + imag(w[i])*imag(w[i])
	}
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Sqrt(num / den)
}

// FirstBitDiff returns the index of the first element at which v and w
// differ in any bit of their real or imaginary parts (so −0 ≠ +0 and equal
// NaN payloads match), or −1 when they are bitwise identical — the
// comparison the tier/path equivalence tests are stated in.
func FirstBitDiff(v, w Vec) int {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cvec: FirstBitDiff length mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		if math.Float64bits(real(v[i])) != math.Float64bits(real(w[i])) ||
			math.Float64bits(imag(v[i])) != math.Float64bits(imag(w[i])) {
			return i
		}
	}
	return -1
}
