package rfft

import (
	"fmt"

	"repro/internal/core"
)

// Plan2D computes real-input 2D DFTs on n×m row-major grids (m even ≥ 2),
// producing the natural half-spectrum n×(m/2+1). Both directions run as
// compiled two/three-stage graphs on the plan's persistent double-buffer
// executor:
//
//	forward:  rows (pack+DFT_l+untangle) → cols (DFT_n ⊗ I_μ)   + DC post-pass
//	inverse:  entangle → cols⁻¹ (scaled 1/n) → rows⁻¹ (retangle+IDFT_l)
//
// The row stages stream the user's []float64 grid through the fused
// pair-packed endpoints, so the whole pipeline moves half the bytes of the
// same-shape complex transform.
type Plan2D struct {
	n, m, l, mc int
	engine
}

// NewPlan2D builds a 2D real-input plan; n ≥ 1, m even ≥ 2.
func NewPlan2D(n, m int, cfg core.Config) (*Plan2D, error) {
	if n < 1 {
		return nil, fmt.Errorf("rfft: invalid size %dx%d", n, m)
	}
	l := m / 2
	p := &Plan2D{n: n, m: m, l: l, mc: l + 1}
	// Rows ky = 0 and ky = n/2 of the half-spectrum are self-conjugate:
	// their X[0]/X[l] bins are forced real.
	err := p.build("Plan2D", fmt.Sprintf("rfft2d/%dx%d", n, m), cfg, m, []int{n, l},
		func(g int) bool { return g == 0 || 2*g == n })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Dims returns (n, m).
func (p *Plan2D) Dims() (int, int) { return p.n, p.m }

// SpectrumLen returns n·(m/2+1).
func (p *Plan2D) SpectrumLen() int { return p.n * p.mc }

// RealLen returns n·m.
func (p *Plan2D) RealLen() int { return p.n * p.m }

// Forward computes the unnormalized half spectrum. dst must have length
// SpectrumLen(), src RealLen(); they are the only per-call endpoints, so
// the steady state is allocation-free.
func (p *Plan2D) Forward(dst []complex128, src []float64) error {
	if len(dst) != p.SpectrumLen() || len(src) != p.RealLen() {
		return fmt.Errorf("rfft: Forward lengths dst=%d src=%d, want %d/%d",
			len(dst), len(src), p.SpectrumLen(), p.RealLen())
	}
	if err := p.forward(dst, src, 0); err != nil {
		return err
	}
	p.disentangleDC(dst)
	return nil
}

// disentangleDC splits the packed lane-0 column A[ky] = C₀[ky] + i·C_l[ky]
// into the DC column C₀ and the Nyquist column C_l using the Hermitian
// symmetry of both (they are column DFTs of real columns): for each
// conjugate orbit {ky, n−ky}, C₀ = (A + conj(A′))/2 and
// C_l = (A − conj(A′))/(2i).
func (p *Plan2D) disentangleDC(dst []complex128) {
	n, l, mc := p.n, p.l, p.mc
	for ky := 0; 2*ky <= n; ky++ {
		kp := (n - ky) % n
		a, ap := dst[ky*mc], dst[kp*mc]
		d := a - conjc(ap)
		c0 := (a + conjc(ap)) / 2
		cl := complex(imag(d)/2, -real(d)/2) // d/(2i)
		dst[ky*mc] = c0
		dst[ky*mc+l] = cl
		dst[kp*mc] = conjc(c0)
		dst[kp*mc+l] = conjc(cl)
	}
}

// Inverse computes the fully normalized real inverse (Inverse ∘ Forward is
// the identity). src is read-only — unlike the old driver it is not used
// as scratch — and the self-conjugate bins (ky ∈ {0, n/2}, kx ∈ {0, m/2})
// have their imaginary parts forced to zero on the way in.
func (p *Plan2D) Inverse(dst []float64, src []complex128) error {
	if len(dst) != p.RealLen() || len(src) != p.SpectrumLen() {
		return fmt.Errorf("rfft: Inverse lengths dst=%d src=%d, want %d/%d",
			len(dst), len(src), p.RealLen(), p.SpectrumLen())
	}
	return p.inverse(dst, src, 0)
}

func conjc(z complex128) complex128 { return complex(real(z), -imag(z)) }
