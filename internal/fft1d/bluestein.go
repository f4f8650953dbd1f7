package fft1d

import (
	"sync"

	"repro/internal/kernels"
	"repro/internal/twiddle"
)

// bluesteinPlan implements the chirp-z transform: an n-point DFT (n prime or
// otherwise awkward) computed as a circular convolution of length m = 2^k ≥
// 2n-1 on top of the power-of-two Stockham path.
//
// Derivation: with ω = e^{-2πi/n}, k·l = (k² + l² - (k-l)²)/2, so
//
//	X_k = c_k · Σ_l (x_l · c_l) · conj(c_{k-l}),   c_j = e^{-iπ j²/n}.
//
// The sum is a linear convolution of a_l = x_l·c_l with b_j = conj(c_j),
// evaluated circularly at length m after zero-padding.
type bluesteinPlan struct {
	n, m  int
	mPlan *Plan

	once   [2]sync.Once
	chirp  [2][]complex128 // c_j per direction
	kernel [2][]complex128 // FFT_m of the wrapped conj-chirp, per direction
}

func newBluestein(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	return &bluesteinPlan{n: n, m: m, mPlan: NewPlan(m)}
}

// tables builds the chirp and convolution kernel for direction sign.
func (b *bluesteinPlan) tables(sign int) (chirp, kernel []complex128) {
	i := signIdx(sign)
	b.once[i].Do(func() {
		n, m := b.n, b.m
		c := make([]complex128, n)
		for j := 0; j < n; j++ {
			// c_j = e^{-iπ j²/n} = ω_{2n}^{j²} (forward); inverse conjugates.
			w := twiddle.Omega(2*n, (j*j)%(2*n))
			if sign == Inverse {
				w = complex(real(w), -imag(w))
			}
			c[j] = w
		}
		// Wrapped kernel: b_0..b_{n-1} = conj(c), b_{m-j} = conj(c_j).
		ext := make([]complex128, m)
		for j := 0; j < n; j++ {
			cj := complex(real(c[j]), -imag(c[j]))
			ext[j] = cj
			if j > 0 {
				ext[m-j] = cj
			}
		}
		ker := make([]complex128, m)
		b.mPlan.Transform(ker, ext, Forward)
		b.chirp[i] = c
		b.kernel[i] = ker
	})
	return b.chirp[i], b.kernel[i]
}

// transform computes dst = DFT_n(src) with direction sign. dst and src must
// not alias. All work buffers come from the caller's arena, sized at the
// first (warmup) call and reused thereafter.
func (b *bluesteinPlan) transform(dst, src []complex128, sign int, ar *kernels.Arena) {
	n, m := b.n, b.m
	chirp, kernel := b.tables(sign)

	mk := ar.Mark()
	a := ar.Complex(m)
	fa := ar.Complex(m)

	for j := 0; j < n; j++ {
		a[j] = src[j] * chirp[j]
	}
	for j := n; j < m; j++ {
		a[j] = 0
	}
	b.mPlan.run(fa, a, 1, 1, Forward, len(b.mPlan.stages), ar)
	for j := 0; j < m; j++ {
		fa[j] *= kernel[j]
	}
	b.mPlan.run(a, fa, 1, 1, Inverse, len(b.mPlan.stages), ar)
	inv := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		dst[k] = a[k] * inv * chirp[k]
	}
	ar.Rewind(mk)
}
