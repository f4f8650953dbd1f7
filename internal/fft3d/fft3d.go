// Package fft3d builds three-dimensional FFT plans over k×n×m row-major
// complex128 cubes (z, y, x with x fastest) on the paper's scheme (§III):
// three pipelined stages, each load-contiguous → compute-contiguous-pencils
// → store-blocked-rotation, with soft-DMA data workers and compute
// workers. After three rotations the cube is back in its original layout:
//
//	(K_k^{n,m/μ} ⊗ I_μ)(I_{nm/μ} ⊗ DFT_k ⊗ I_μ)    Stage 3
//	(K_n^{m/μ,k} ⊗ I_μ)(I_{mk/μ} ⊗ DFT_n ⊗ I_μ)    Stage 2
//	(K_{m/μ}^{k,n} ⊗ I_μ)(I_{kn} ⊗ DFT_m)          Stage 1
//
// The plan is core.Plan, shared with internal/fft2d; this package supplies
// what is particular to rank 3.
package fft3d

import (
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/stagegraph"
)

// Options and DoubleBuf are the names the benchmark ruler builds its
// reference plan with; the configuration is declared in core.
type Options = core.Config

const DoubleBuf = core.DoubleBuf

// NewPlan validates the size and configuration and builds the k×n×m plan.
func NewPlan(k, n, m int, cfg core.Config) (*core.Plan, error) {
	d, err := cfg.Pencils("fft3d", k, n, m)
	if err != nil {
		return nil, err
	}
	// Array flow: stage 1 src→dst, stage 2 dst→work, stage 3 work→dst, so
	// the input is preserved and only one internal work array is needed.
	// The fused schedule keeps this safe: stage 3's first store runs
	// strictly after stage 2's last load of dst (see
	// stagegraph.BuildSchedule).
	d.Mid = []stagegraph.Array{{}, {C: make([]complex128, k*n*m)}}
	return cfg.NewPlan(d, func(mo *perfmodel.Model) perfmodel.Estimate { return mo.DoubleBuf3D(k, n, m, 1) })
}
