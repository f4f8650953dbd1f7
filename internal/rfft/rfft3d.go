package rfft

import (
	"fmt"

	"repro/internal/core"
)

// Plan3D computes real-input 3D DFTs on k×n×m row-major grids (m even ≥ 2),
// producing the natural half-spectrum k×n×(m/2+1): the x dimension stores
// only the non-redundant Hermitian coefficients, so the transform moves
// roughly half the bytes of a padded complex transform. Both directions run
// as compiled stage graphs on the plan's persistent executor:
//
//	forward:  x-rows (pack+DFT_l+untangle) → y-pencils → z-pencils + DC post-pass
//	inverse:  entangle → y⁻¹ (scaled 1/n) → z⁻¹ (scaled 1/k) → x⁻¹ (retangle+IDFT_l)
//
// (The inverse undoes the pencil stages in y-then-z order — the axis DFTs
// commute, and that order lets every stage load its input contiguously.)
type Plan3D struct {
	k, n, m, l, mc int
	engine

	planeA []complex128 // k·n packed-DC plane copy for the post-pass
}

// NewPlan3D builds a 3D real-input plan; k, n ≥ 1, m even ≥ 2.
func NewPlan3D(k, n, m int, cfg core.Config) (*Plan3D, error) {
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("rfft: invalid size %dx%dx%d", k, n, m)
	}
	l := m / 2
	p := &Plan3D{k: k, n: n, m: m, l: l, mc: l + 1, planeA: make([]complex128, k*n)}
	// The four (in even×even grids) self-conjugate (z,y) rows have their
	// X[0]/X[l] bins forced real.
	err := p.build("Plan3D", fmt.Sprintf("rfft3d/%dx%dx%d", k, n, m), cfg, m, []int{k, n, l},
		func(g int) bool {
			z, y := g/n, g%n
			return (z == 0 || 2*z == k) && (y == 0 || 2*y == n)
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Dims returns (k, n, m).
func (p *Plan3D) Dims() (int, int, int) { return p.k, p.n, p.m }

// SpectrumLen returns k·n·(m/2+1).
func (p *Plan3D) SpectrumLen() int { return p.k * p.n * p.mc }

// RealLen returns k·n·m.
func (p *Plan3D) RealLen() int { return p.k * p.n * p.m }

// Forward computes the unnormalized half spectrum. dst must have length
// SpectrumLen(), src RealLen().
func (p *Plan3D) Forward(dst []complex128, src []float64) error {
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

// disentangleDC splits the packed DC plane A[z][y] = C₀[z][y] + i·C_l[z][y]
// into the DC (kx = 0) and Nyquist (kx = m/2) planes via the Hermitian
// symmetry of both in (z, y); the plane is copied first because each orbit
// needs its mirror's original value.
func (p *Plan3D) disentangleDC(dst []complex128) {
	k, n, l, mc := p.k, p.n, p.l, p.mc
	for r := 0; r < k*n; r++ {
		p.planeA[r] = dst[r*mc]
	}
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			a := p.planeA[z*n+y]
			am := p.planeA[((k-z)%k)*n+(n-y)%n]
			d := a - conjc(am)
			dst[(z*n+y)*mc] = (a + conjc(am)) / 2
			dst[(z*n+y)*mc+l] = complex(imag(d)/2, -real(d)/2) // d/(2i)
		}
	}
}

// Inverse computes the fully normalized real inverse (Inverse ∘ Forward is
// the identity). src is read-only — it is no longer consumed as scratch —
// and the self-conjugate bins have their imaginary parts forced to zero on
// the way in.
func (p *Plan3D) Inverse(dst []float64, src []complex128) error {
	if len(dst) != p.RealLen() || len(src) != p.SpectrumLen() {
		return fmt.Errorf("rfft: Inverse lengths dst=%d src=%d, want %d/%d",
			len(dst), len(src), p.RealLen(), p.SpectrumLen())
	}
	return p.inverse(dst, src, 0)
}
