package kernels

import (
	"math"

	"repro/internal/twiddle"
)

// Small returns a dense codelet computing the n-point DFT out of place:
// f(dst, src, sign). Sizes 2, 3, 4, 5, 7 and 8 are hand-unrolled (fft1d's
// generic radix-3/5/7 stages and the n ≤ 8 plans run them); other sizes fall
// back to a generic dense loop. dst and src must not alias.
func Small(n int) func(dst, src []complex128, sign int) {
	switch n {
	case 1:
		return func(dst, src []complex128, _ int) { dst[0] = src[0] }
	case 2:
		return dft2
	case 3:
		return dft3
	case 4:
		return dft4
	case 5:
		return dft5
	case 7:
		return dft7
	case 8:
		return dft8
	default:
		return func(dst, src []complex128, sign int) {
			denseDFT(dst, src, sign)
		}
	}
}

func denseDFT(dst, src []complex128, sign int) {
	n := len(src)
	for k := 0; k < n; k++ {
		var s complex128
		for l := 0; l < n; l++ {
			w := twiddle.Omega(n, k*l)
			if sign == Inverse {
				w = complex(real(w), -imag(w))
			}
			s += w * src[l]
		}
		dst[k] = s
	}
}

func dft2(dst, src []complex128, _ int) {
	a, b := src[0], src[1]
	dst[0] = a + b
	dst[1] = a - b
}

// mulJ returns sign * i * c (rotation by ±90°).
func mulJ(c complex128, sign int) complex128 {
	if sign == Forward {
		return complex(imag(c), -real(c)) // -i * c
	}
	return complex(-imag(c), real(c)) // +i * c
}

func dft3(dst, src []complex128, sign int) {
	// ω_3 = -1/2 - i·√3/2 (forward).
	const c1 = -0.5
	s1 := math.Sqrt(3) / 2
	if sign == Inverse {
		s1 = -s1
	}
	a, b, c := src[0], src[1], src[2]
	t1 := b + c
	t2 := b - c
	m1 := complex(c1*real(t1), c1*imag(t1))
	// -i·s1·t2 for forward
	m2 := complex(s1*imag(t2), -s1*real(t2))
	dst[0] = a + t1
	dst[1] = a + m1 + m2
	dst[2] = a + m1 - m2
}

func dft4(dst, src []complex128, sign int) {
	a, b, c, d := src[0], src[1], src[2], src[3]
	apc, amc := a+c, a-c
	bpd, bmd := b+d, b-d
	jb := mulJ(bmd, sign)
	dst[0] = apc + bpd
	dst[1] = amc + jb
	dst[2] = apc - bpd
	dst[3] = amc - jb
}

func dft5(dst, src []complex128, sign int) {
	// Winograd-style 5-point DFT using cos/sin of 2π/5 and 4π/5.
	cos1 := math.Cos(2 * math.Pi / 5)
	cos2 := math.Cos(4 * math.Pi / 5)
	sin1 := math.Sin(2 * math.Pi / 5)
	sin2 := math.Sin(4 * math.Pi / 5)
	if sign == Inverse {
		sin1, sin2 = -sin1, -sin2
	}
	a := src[0]
	t1, t4 := src[1]+src[4], src[1]-src[4]
	t2, t3 := src[2]+src[3], src[2]-src[3]
	dst[0] = a + t1 + t2
	r1 := a + complex(cos1*real(t1)+cos2*real(t2), cos1*imag(t1)+cos2*imag(t2))
	r2 := a + complex(cos2*real(t1)+cos1*real(t2), cos2*imag(t1)+cos1*imag(t2))
	// forward: -i*(sin1*t4 + sin2*t3), -i*(sin2*t4 - sin1*t3)
	s1 := complex(sin1*imag(t4)+sin2*imag(t3), -sin1*real(t4)-sin2*real(t3))
	s2 := complex(sin2*imag(t4)-sin1*imag(t3), -sin2*real(t4)+sin1*real(t3))
	dst[1] = r1 + s1
	dst[4] = r1 - s1
	dst[2] = r2 + s2
	dst[3] = r2 - s2
}

func dft7(dst, src []complex128, sign int) {
	// 7-point DFT folded over symmetric (p) and antisymmetric (m) pairs:
	// X_k = a + Σ_j cos(2πkj/7)·p_j - i·Σ_j sin(2πkj/7)·m_j  (forward),
	// and X_{7-k} is the same with the sine term negated.
	a := src[0]
	p := [3]complex128{src[1] + src[6], src[2] + src[5], src[3] + src[4]}
	m := [3]complex128{src[1] - src[6], src[2] - src[5], src[3] - src[4]}
	dst[0] = a + p[0] + p[1] + p[2]
	for k := 1; k <= 3; k++ {
		re := a
		var sIm complex128
		for j := 1; j <= 3; j++ {
			ang := 2 * math.Pi * float64(k*j) / 7
			c, s := math.Cos(ang), math.Sin(ang)
			if sign == Inverse {
				s = -s
			}
			pj, mj := p[j-1], m[j-1]
			re += complex(c*real(pj), c*imag(pj))
			// -i * s * mj accumulated
			sIm += complex(s*imag(mj), -s*real(mj))
		}
		dst[k] = re + sIm
		dst[7-k] = re - sIm
	}
}

func dft8(dst, src []complex128, sign int) {
	// Two radix-2 layers over dft4 halves (decimation in time).
	var e, o [4]complex128
	even := []complex128{src[0], src[2], src[4], src[6]}
	odd := []complex128{src[1], src[3], src[5], src[7]}
	dft4(e[:], even, sign)
	dft4(o[:], odd, sign)
	h := math.Sqrt2 / 2
	var w [4]complex128
	w[0] = 1
	if sign == Forward {
		w[1] = complex(h, -h)
		w[2] = complex(0, -1)
		w[3] = complex(-h, -h)
	} else {
		w[1] = complex(h, h)
		w[2] = complex(0, 1)
		w[3] = complex(-h, h)
	}
	for k := 0; k < 4; k++ {
		t := w[k] * o[k]
		dst[k] = e[k] + t
		dst[k+4] = e[k] - t
	}
}
