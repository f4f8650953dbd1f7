// Package kernels provides the low-level FFT compute kernels used by the
// plan-based drivers in internal/fft1d.
//
// The kernels are complex-interleaved Stockham butterfly stages (Radix2Step
// … Radix16Step) operating on []complex128. (The paper's §IV-A
// block-interleaved format — separate real and imaginary arrays for the
// middle compute stages — was implemented, measured 1.3–1.9× behind these
// in every cell of EXPERIMENTS.md "Plan defaults and whole-line streaming
// stores", and retired; commit f193575 is the last that contains it.)
//
// All stages are Stockham autosort steps: they read from src and write to
// dst with the classic decimation-in-frequency butterfly, so no bit-reversal
// pass is ever required. The `s` parameter is the number of interleaved
// lanes; driving the same stages with s = μ computes DFT_n ⊗ I_μ, the
// vectorized cacheline-granularity kernel from the paper's blocked
// decompositions.
//
// The package also provides small dense codelets (Small), which fft1d's
// generic stages apply to each gathered butterfly, and a NaiveDFT reference used by tests throughout the
// repository.
package kernels

import (
	"fmt"
	"math"

	"repro/internal/twiddle"
)

// Forward and Inverse select the transform direction. The forward transform
// uses ω_n = e^{-2πi/n}; the inverse uses the conjugate and is unnormalized
// (drivers apply the 1/n scaling).
const (
	Forward = -1
	Inverse = +1
)

// NaiveDFT computes the dense O(n²) DFT of x with the given direction and
// returns a freshly allocated result. It is the correctness oracle for every
// fast implementation in this repository.
func NaiveDFT(x []complex128, sign int) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for l := 0; l < n; l++ {
			w := twiddle.Omega(n, k*l)
			if sign == Inverse {
				w = complex(real(w), -imag(w))
			}
			s += w * x[l]
		}
		y[k] = s
	}
	return y
}

// StageTwiddles holds the per-butterfly twiddle factors for one Stockham
// stage, precomputed at plan time. For a radix-r stage over sub-size n1=r·m,
// Wj[p] = ω_{n1}^{j·p} for p < m and 1 ≤ j < r. Radix-2 stages use only W1,
// radix-4 stages W1–W3, radix-8 stages W1–W7, fused radix-16 stages W1–W15.
//
// The radix-16 legs are the stage-pair table of the fused two-stage codelet:
// a radix-16 step is two radix-4 rank stages done in registers, and because
// the fused output slot r = 4·j_B + j_A equals the combined twiddle degree
// j_A + 4·j_B, leg W_r applies directly to output slot r — the fused access
// order is exactly the natural W1..W15 layout, with the same total twiddle
// footprint as the two separate stages it replaces.
type StageTwiddles struct {
	Radix int
	W1    []complex128
	W2    []complex128
	W3    []complex128
	W4    []complex128
	W5    []complex128
	W6    []complex128
	W7    []complex128
	W8    []complex128
	W9    []complex128
	W10   []complex128
	W11   []complex128
	W12   []complex128
	W13   []complex128
	W14   []complex128
	W15   []complex128
}

// legs returns the twiddle legs indexed by output slot (legs[0] is nil: slot
// 0 is untwiddled).
func (st *StageTwiddles) legs() [16][]complex128 {
	return [16][]complex128{
		nil, st.W1, st.W2, st.W3, st.W4, st.W5, st.W6, st.W7,
		st.W8, st.W9, st.W10, st.W11, st.W12, st.W13, st.W14, st.W15,
	}
}

// NewStageTwiddles precomputes the twiddles for one stage of sub-size n1
// with the given radix (2, 4, 8 or fused 16) and direction sign.
func NewStageTwiddles(n1, radix, sign int) StageTwiddles {
	if radix != 2 && radix != 4 && radix != 8 && radix != 16 {
		panic(fmt.Sprintf("kernels: unsupported radix %d", radix))
	}
	if n1%radix != 0 {
		panic(fmt.Sprintf("kernels: stage size %d not divisible by radix %d", n1, radix))
	}
	m := n1 / radix
	st := StageTwiddles{Radix: radix, W1: make([]complex128, m)}
	conjIf := func(w complex128) complex128 {
		if sign == Inverse {
			return complex(real(w), -imag(w))
		}
		return w
	}
	if radix == 2 {
		for p := 0; p < m; p++ {
			st.W1[p] = conjIf(twiddle.Omega(n1, p))
		}
		return st
	}
	st.W2 = make([]complex128, m)
	st.W3 = make([]complex128, m)
	if radix == 4 {
		for p := 0; p < m; p++ {
			w1 := conjIf(twiddle.Omega(n1, p))
			st.W1[p] = w1
			st.W2[p] = w1 * w1
			st.W3[p] = w1 * w1 * w1
		}
		return st
	}
	st.W4 = make([]complex128, m)
	st.W5 = make([]complex128, m)
	st.W6 = make([]complex128, m)
	st.W7 = make([]complex128, m)
	// Powers via Omega's mod-n reduction rather than repeated
	// multiplication: keeps the quarter-point twiddles exact for every j.
	if radix == 8 {
		for p := 0; p < m; p++ {
			st.W1[p] = conjIf(twiddle.Omega(n1, p))
			st.W2[p] = conjIf(twiddle.Omega(n1, 2*p))
			st.W3[p] = conjIf(twiddle.Omega(n1, 3*p))
			st.W4[p] = conjIf(twiddle.Omega(n1, 4*p))
			st.W5[p] = conjIf(twiddle.Omega(n1, 5*p))
			st.W6[p] = conjIf(twiddle.Omega(n1, 6*p))
			st.W7[p] = conjIf(twiddle.Omega(n1, 7*p))
		}
		return st
	}
	st.W8 = make([]complex128, m)
	st.W9 = make([]complex128, m)
	st.W10 = make([]complex128, m)
	st.W11 = make([]complex128, m)
	st.W12 = make([]complex128, m)
	st.W13 = make([]complex128, m)
	st.W14 = make([]complex128, m)
	st.W15 = make([]complex128, m)
	legs := st.legs()
	for d := 1; d < 16; d++ {
		w := legs[d]
		for p := 0; p < m; p++ {
			w[p] = conjIf(twiddle.Omega(n1, d*p))
		}
	}
	return st
}

// Radix2Step performs one Stockham decimation-in-frequency radix-2 stage.
// src holds 2*m groups of s lanes (total 2*m*s elements); dst receives the
// butterflied data. tw must come from NewStageTwiddles(2*m, 2, sign).
func Radix2Step(dst, src []complex128, m, s int, tw StageTwiddles) {
	for p := 0; p < m; p++ {
		wp := tw.W1[p]
		a := src[s*p : s*p+s]
		b := src[s*(p+m) : s*(p+m)+s]
		ya := dst[s*2*p : s*2*p+s]
		yb := dst[s*(2*p+1) : s*(2*p+1)+s]
		for q := 0; q < s; q++ {
			aq, bq := a[q], b[q]
			ya[q] = aq + bq
			yb[q] = (aq - bq) * wp
		}
	}
}

// Radix4Step performs one Stockham decimation-in-frequency radix-4 stage.
// src holds 4*m groups of s lanes; tw must come from
// NewStageTwiddles(4*m, 4, sign). sign selects the direction and must match
// the sign used to build tw (it controls the ±i rotation of the odd
// butterfly leg).
func Radix4StepGeneric(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	// jdir is -i for the forward transform (ω_4 = -i), +i for inverse.
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw.W1[p], tw.W2[p], tw.W3[p]
		xa := src[s*p : s*p+s]
		xb := src[s*(p+m) : s*(p+m)+s]
		xc := src[s*(p+2*m) : s*(p+2*m)+s]
		xd := src[s*(p+3*m) : s*(p+3*m)+s]
		y0 := dst[s*4*p : s*4*p+s]
		y1 := dst[s*(4*p+1) : s*(4*p+1)+s]
		y2 := dst[s*(4*p+2) : s*(4*p+2)+s]
		y3 := dst[s*(4*p+3) : s*(4*p+3)+s]
		for q := 0; q < s; q++ {
			a, b, c, d := xa[q], xb[q], xc[q], xd[q]
			apc := a + c
			amc := a - c
			bpd := b + d
			bmd := b - d
			// jbmd = jdir * (b - d)
			jbmd := complex(-jim*imag(bmd), jim*real(bmd))
			y0[q] = apc + bpd
			y1[q] = (amc + jbmd) * w1
			y2[q] = (apc - bpd) * w2
			y3[q] = (amc - jbmd) * w3
		}
	}
}

// sqrt1_2 is √2/2, the real/imaginary magnitude of ω_8.
const sqrt1_2 = math.Sqrt2 / 2

// Radix8Step performs one Stockham decimation-in-frequency radix-8 stage.
// src holds 8*m groups of s lanes; tw must come from
// NewStageTwiddles(8*m, 8, sign), and sign must match the direction used to
// build tw. One radix-8 stage replaces three radix-2 stages (one pass over
// the buffer instead of three), which is the pass-count reduction §III of
// the paper attributes to higher-radix kernels.
//
// The butterfly is decomposed even/odd: e_a = x_a + x_{a+4} feeds a DFT₄ for the
// even outputs, o_a = (x_a − x_{a+4})·ω₈^a feeds a DFT₄ for the odd
// outputs. jim is −1 forward / +1 inverse, so ω₈ = (h, jim·h) with h = √2/2,
// ω₈² = jim·i and ω₈³ = (−h, jim·h); the rotations are expanded into real
// arithmetic so no complex multiply by a constant survives in the loop.
func Radix8StepGeneric(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	h := sqrt1_2
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw.W1[p], tw.W2[p], tw.W3[p]
		w4, w5, w6, w7 := tw.W4[p], tw.W5[p], tw.W6[p], tw.W7[p]
		x0 := src[s*p : s*p+s]
		x1 := src[s*(p+m) : s*(p+m)+s]
		x2 := src[s*(p+2*m) : s*(p+2*m)+s]
		x3 := src[s*(p+3*m) : s*(p+3*m)+s]
		x4 := src[s*(p+4*m) : s*(p+4*m)+s]
		x5 := src[s*(p+5*m) : s*(p+5*m)+s]
		x6 := src[s*(p+6*m) : s*(p+6*m)+s]
		x7 := src[s*(p+7*m) : s*(p+7*m)+s]
		y0 := dst[s*8*p : s*8*p+s]
		y1 := dst[s*(8*p+1) : s*(8*p+1)+s]
		y2 := dst[s*(8*p+2) : s*(8*p+2)+s]
		y3 := dst[s*(8*p+3) : s*(8*p+3)+s]
		y4 := dst[s*(8*p+4) : s*(8*p+4)+s]
		y5 := dst[s*(8*p+5) : s*(8*p+5)+s]
		y6 := dst[s*(8*p+6) : s*(8*p+6)+s]
		y7 := dst[s*(8*p+7) : s*(8*p+7)+s]
		for q := 0; q < s; q++ {
			a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
			a4, a5, a6, a7 := x4[q], x5[q], x6[q], x7[q]
			e0, e1, e2, e3 := a0+a4, a1+a5, a2+a6, a3+a7
			o0 := a0 - a4
			t1 := a1 - a5
			t2 := a2 - a6
			t3 := a3 - a7
			// o1 = t1·ω₈, o2 = t2·ω₈², o3 = t3·ω₈³, expanded.
			o1 := complex(h*(real(t1)-jim*imag(t1)), h*(imag(t1)+jim*real(t1)))
			o2 := complex(-jim*imag(t2), jim*real(t2))
			o3 := complex(-h*(real(t3)+jim*imag(t3)), h*(jim*real(t3)-imag(t3)))
			// Even outputs: DFT₄ of e.
			epc, emc := e0+e2, e0-e2
			fpd, fmd := e1+e3, e1-e3
			jf := complex(-jim*imag(fmd), jim*real(fmd))
			// Odd outputs: DFT₄ of o.
			opc, omc := o0+o2, o0-o2
			qpd, qmd := o1+o3, o1-o3
			jq := complex(-jim*imag(qmd), jim*real(qmd))
			y0[q] = epc + fpd
			y1[q] = (opc + qpd) * w1
			y2[q] = (emc + jf) * w2
			y3[q] = (omc + jq) * w3
			y4[q] = (epc - fpd) * w4
			y5[q] = (opc - qpd) * w5
			y6[q] = (emc - jf) * w6
			y7[q] = (omc - jq) * w7
		}
	}
}

// cosPi8 and sinPi8 are cos(π/8) and sin(π/8), the inter-rank rotation
// constants of the fused radix-16 butterfly (ω₁₆ = cos(π/8) ± i·sin(π/8)).
// They are spelled as literals so the pure-Go tier and the generated AVX2
// RODATA share bit-identical values.
const (
	cosPi8 = 0.9238795325112867
	sinPi8 = 0.38268343236508978
)

// Radix16StepGeneric performs one *fused* Stockham stage equal to two
// consecutive radix-4 stages: for sub-size n1 = 16·m it computes
//
//	dst[s·(16p+r)+q] = W_r[p] · Σ_K ω̂₁₆^{rK} · src[s·(p+K·m)+q]
//
// which is exactly Radix4Step at (n1, s) followed by Radix4Step at
// (n1/4, 4s) — but with the intermediate rank kept entirely in registers:
// one load, one combined butterfly network, one store, so the pencil is
// swept once instead of twice. tw must come from NewStageTwiddles(16*m, 16,
// sign) and sign must match.
//
// Internally the 16-point DFT factors into two rank-4 passes. Pass A does a
// plain DFT₄ over kA within each residue kB (u[jA·4+kB]); the ranks are then
// coupled by the constant rotations ω̂₁₆^{jA·kB} (exponents {1,2,3,4,6,9},
// built from cos/sin(π/8), √2/2 and the ±i of the direction); pass B does a
// DFT₄ over kB per jA. Because the fused output slot r = 4·j_B + j_A equals
// the combined twiddle degree, leg W_r applies directly to slot r.
func Radix16StepGeneric(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	jim := 1.0
	if sign == Forward {
		jim = -1.0
	}
	h := sqrt1_2
	ws := tw.legs()
	var u [16]complex128
	rot := func(idx int, a, b float64) {
		v := u[idx]
		u[idx] = complex(a*real(v)-jim*b*imag(v), a*imag(v)+jim*b*real(v))
	}
	for p := 0; p < m; p++ {
		for q := 0; q < s; q++ {
			// Pass A: DFT₄ over kA within each residue kB.
			for kB := 0; kB < 4; kB++ {
				a := src[s*(p+kB*m)+q]
				b := src[s*(p+(kB+4)*m)+q]
				c := src[s*(p+(kB+8)*m)+q]
				d := src[s*(p+(kB+12)*m)+q]
				apc, amc := a+c, a-c
				bpd, bmd := b+d, b-d
				jb := complex(-jim*imag(bmd), jim*real(bmd))
				u[kB] = apc + bpd
				u[4+kB] = amc + jb
				u[8+kB] = apc - bpd
				u[12+kB] = amc - jb
			}
			// Inter-rank rotations u[4·jA+kB] ·= ω̂₁₆^{jA·kB}.
			rot(4+1, cosPi8, sinPi8)    // e=1
			rot(4+2, h, h)              // e=2
			rot(4+3, sinPi8, cosPi8)    // e=3
			rot(8+1, h, h)              // e=2
			rot(8+2, 0, 1)              // e=4
			rot(8+3, -h, h)             // e=6
			rot(12+1, sinPi8, cosPi8)   // e=3
			rot(12+2, -h, h)            // e=6
			rot(12+3, -cosPi8, -sinPi8) // e=9
			// Pass B: DFT₄ over kB per jA; slot r = 4·jB + jA gets leg W_r.
			for jA := 0; jA < 4; jA++ {
				a, b, c, d := u[4*jA], u[4*jA+1], u[4*jA+2], u[4*jA+3]
				apc, amc := a+c, a-c
				bpd, bmd := b+d, b-d
				jb := complex(-jim*imag(bmd), jim*real(bmd))
				o := s*16*p + q
				if jA == 0 {
					dst[o] = apc + bpd
				} else {
					dst[o+s*jA] = (apc + bpd) * ws[jA][p]
				}
				dst[o+s*(4+jA)] = (amc + jb) * ws[4+jA][p]
				dst[o+s*(8+jA)] = (apc - bpd) * ws[8+jA][p]
				dst[o+s*(12+jA)] = (amc - jb) * ws[12+jA][p]
			}
		}
	}
}

// Radix4FoldLeg computes one output leg of a trivial-twiddle radix-4 DIF
// butterfly over four equal-length blocks: dst = Σ_k ω̂4^{leg·k} z_k with
// ω̂4 = jim·i (jim = −1 forward, +1 inverse). This is the final Stockham
// stage of a trailing-radix-4 plan (m = 1, so every table twiddle is 1),
// exposed block-wise so the stage-graph store leg can fold that sweep into
// its scatter instead of running a separate pass over the buffer.
// Radix4FoldLeg dispatches to an accelerated version when one exists.
func Radix4FoldLegGeneric(dst, z0, z1, z2, z3 []complex128, leg, sign int) {
	jim := -1.0
	if sign == Inverse {
		jim = 1.0
	}
	switch leg {
	case 0:
		for i := range dst {
			dst[i] = (z0[i] + z2[i]) + (z1[i] + z3[i])
		}
	case 1:
		for i := range dst {
			a := z0[i] - z2[i]
			b := z1[i] - z3[i]
			dst[i] = a + complex(-jim*imag(b), jim*real(b))
		}
	case 2:
		for i := range dst {
			dst[i] = (z0[i] + z2[i]) - (z1[i] + z3[i])
		}
	default:
		for i := range dst {
			a := z0[i] - z2[i]
			b := z1[i] - z3[i]
			dst[i] = a - complex(-jim*imag(b), jim*real(b))
		}
	}
}
