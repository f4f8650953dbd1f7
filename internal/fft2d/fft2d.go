// Package fft2d builds two-dimensional FFT plans over n×m row-major
// complex128 matrices: the paper's contribution (§III), where every stage
// becomes load-contiguous → compute-contiguous-pencils →
// store-blocked-transpose, executed by the software-pipelined double-buffer
// engine with dedicated data workers (soft DMA engines) and compute
// workers. After the two stages the matrix is back in its original
// row-major layout:
//
//	DFT_{n×m} = (L_n^{mn/μ} ⊗ I_μ)(I_{m/μ} ⊗ DFT_n ⊗ I_μ)   Stage 2
//	            (L_{m/μ}^{mn/μ} ⊗ I_μ)(I_n ⊗ DFT_m)          Stage 1
//
// The plan is core.Plan, shared with internal/fft3d; this package supplies
// what is particular to rank 2.
package fft2d

import (
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/stagegraph"
)

// NewPlan validates the size and configuration and builds the n×m plan.
func NewPlan(n, m int, cfg core.Config) (*core.Plan, error) {
	d, err := cfg.Pencils("fft2d", n, m)
	if err != nil {
		return nil, err
	}
	// Stage 1 reads src and leaves the blocked-transposed intermediate in
	// the work array; stage 2 reads it and produces dst in the original
	// row-major layout.
	d.Mid = []stagegraph.Array{{C: make([]complex128, n*m)}}
	return cfg.NewPlan(d, func(mo *perfmodel.Model) perfmodel.Estimate { return mo.DoubleBuf2D(n, m) })
}
