// Package fft3d implements three-dimensional FFTs over k×n×m row-major
// complex128 cubes (z, y, x with x fastest) with four strategies
// (core.Strategy):
//
//   - Reference: row-column-pillar via the lane driver; correctness oracle.
//
//   - Pencil: non-overlapped pencil-pencil-pencil with in-place strided
//     stages — the memory behaviour the paper ascribes to MKL/FFTW.
//
//   - Slab: slab-pencil decomposition fusing the first two stages inside a
//     z-slab (what FFTW effectively does on the big-cache AMD parts, §V).
//
//   - DoubleBuf, the default: the paper's scheme (§III): three pipelined
//     stages, each load-contiguous → compute-contiguous-pencils →
//     store-blocked-rotation, with soft-DMA data workers and compute
//     workers. After three rotations the cube is back in its original
//     layout:
//
//     (K_k^{n,m/μ} ⊗ I_μ)(I_{nm/μ} ⊗ DFT_k ⊗ I_μ)    Stage 3
//     (K_n^{m/μ,k} ⊗ I_μ)(I_{mk/μ} ⊗ DFT_n ⊗ I_μ)    Stage 2
//     (K_{m/μ}^{k,n} ⊗ I_μ)(I_{kn} ⊗ DFT_m)          Stage 1
package fft3d

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/obs"
	"repro/internal/stagegraph"
)

// Options and DoubleBuf are the names the benchmark ruler builds its
// reference plan with; the configuration is declared in core.
type Options = core.Config

const DoubleBuf = core.DoubleBuf

// Plan is a reusable 3D FFT execution plan for a fixed k×n×m size.
type Plan struct {
	k, n, m int
	cfg     core.Config

	planM *fft1d.Plan // DFT_m (x pencils)
	planN *fft1d.Plan // DFT_n (y pencils)
	planK *fft1d.Plan // DFT_k (z pencils)

	// run owns the DoubleBuf state — the compiled three-stage graph, the
	// double buffer and the persistent executor — and serialises
	// transforms on its lock (the plan stays safe for concurrent use;
	// independent plans run fully in parallel). Nil for the baselines.
	run    *stagegraph.Runner
	closed atomic.Bool
}

// NewPlan validates the size and configuration and precomputes sub-plans.
func NewPlan(k, n, m int, cfg core.Config) (*Plan, error) {
	d, err := cfg.Pencils("fft3d", k, n, m)
	if err != nil {
		return nil, err
	}
	p := &Plan{k: k, n: n, m: m, cfg: cfg, planK: d.Plans[0], planN: d.Plans[1], planM: d.Plans[2]}
	if cfg.Strategy != core.DoubleBuf {
		return p, nil
	}
	// Array flow: stage 1 src→dst, stage 2 dst→work, stage 3 work→dst, so
	// the input is preserved and only one internal work array is needed.
	// The fused schedule keeps this safe: stage 3's first store runs
	// strictly after stage 2's last load of dst (see
	// stagegraph.BuildSchedule).
	d.Mid = []stagegraph.Array{{}, {C: make([]complex128, k*n*m)}}
	g, err := d.Build()
	if err != nil {
		return nil, err
	}
	p.run, err = cfg.NewRunner("fft3d", []string{fmt.Sprintf("fft3d/%dx%dx%d", k, n, m)}, g)
	if err != nil {
		return nil, err
	}
	if mo := cfg.Model(); mo != nil {
		p.run.Obs(0).SetPredicted(mo.DoubleBuf3D(k, n, m, 1).StagePredictions())
	}
	return p, nil
}

// Close releases the plan's persistent executor workers. Idempotent and
// safe to call concurrently — with other Close calls and with a Transform
// in flight (Close waits for the transform to finish; later Transforms
// return an error). Plans dropped without Close are cleaned up by a
// finalizer.
func (p *Plan) Close() {
	p.closed.Store(true)
	p.run.Close()
}

// Dims returns (k, n, m).
func (p *Plan) Dims() (k, n, m int) { return p.k, p.n, p.m }

// Len returns the total element count k·n·m.
func (p *Plan) Len() int { return p.k * p.n * p.m }

// StageIters returns the pipeline iteration counts of the three DoubleBuf
// stages (the paper's iter = knm/b); zeros for other strategies.
func (p *Plan) StageIters() (s1, s2, s3 int) {
	if p.run == nil {
		return 0, 0, 0
	}
	it := p.run.Iters(0)
	return it[0], it[1], it[2]
}

// Transform computes dst = DFT_{k×n×m}(src) out of place; dst and src must
// each have length k·n·m and must not overlap. Unnormalized in both
// directions.
func (p *Plan) Transform(dst, src []complex128, sign int) error {
	if len(dst) != p.Len() || len(src) != p.Len() {
		return fmt.Errorf("fft3d: Transform lengths dst=%d src=%d, want %d",
			len(dst), len(src), p.Len())
	}
	return p.transform(dst, src, sign, 0)
}

func (p *Plan) transform(dst, src []complex128, sign int, scale float64) error {
	if p.closed.Load() {
		return fmt.Errorf("fft3d: plan closed")
	}
	switch p.cfg.Strategy {
	case core.Reference:
		p.reference(dst, src, sign)
	case core.Pencil:
		copy(dst, src)
		p.pencilInPlace(dst, sign)
	case core.Slab:
		copy(dst, src)
		p.slabInPlace(dst, sign)
	default:
		return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src},
			Out: stagegraph.Endpoint{C: dst}, Sign: sign, Scale: scale})
	}
	if scale != 0 {
		fft1d.Scale(dst, scale)
	}
	return nil
}

// Inverse computes the normalized inverse transform out of place:
// Transform(dst, src, fft1d.Inverse) followed by fft1d.Scale(dst, 1/Len()),
// bitwise. DoubleBuf plans apply the scale in the last stage's compute leg
// whenever that is bit-identical, so dst is not swept a fourth time.
func (p *Plan) Inverse(dst, src []complex128) error {
	if len(dst) != p.Len() || len(src) != p.Len() {
		return p.Transform(dst, src, fft1d.Inverse) // the length error
	}
	return p.transform(dst, src, fft1d.Inverse, 1/float64(p.Len()))
}

// Stats returns the whole-transform executor stats of the most recent
// DoubleBuf transform (zero value before the first, or for other
// strategies).
func (p *Plan) Stats() stagegraph.Stats { return p.run.Stats() }

// Observability returns the merged bandwidth-accounting snapshot of every
// transform this plan has executed.
func (p *Plan) Observability() obs.Snapshot { return p.run.Observability() }

// Mu returns the effective cacheline block size a DoubleBuf plan runs with
// (after defaulting); the option value for the baselines.
func (p *Plan) Mu() int {
	if p.run == nil {
		return p.cfg.Mu
	}
	return p.run.Mu()
}

// NonTemporalStages reports how many of the plan's stages currently route
// stores through the streaming tier (0 for non-DoubleBuf strategies).
func (p *Plan) NonTemporalStages() int { return p.run.NonTemporalStages() }

// DescribeGraph renders the compiled stage graph the plan executes, with
// each stage's current store mode; empty for non-DoubleBuf strategies.
func (p *Plan) DescribeGraph() string { return p.run.DescribeGraph() }

// InPlace computes x = DFT_{k×n×m}(x).
func (p *Plan) InPlace(x []complex128, sign int) error {
	if len(x) != p.Len() {
		return fmt.Errorf("fft3d: InPlace length %d, want %d", len(x), p.Len())
	}
	switch p.cfg.Strategy {
	case core.Pencil:
		p.pencilInPlace(x, sign)
		return nil
	case core.Slab:
		p.slabInPlace(x, sign)
		return nil
	default:
		tmp := make([]complex128, p.Len())
		if err := p.Transform(tmp, x, sign); err != nil {
			return err
		}
		copy(x, tmp)
		return nil
	}
}

// reference: three lane-driver stages, serial.
func (p *Plan) reference(dst, src []complex128, sign int) {
	k, n, m := p.k, p.n, p.m
	p.planM.BatchInto(dst, src, k*n, sign)
	for z := 0; z < k; z++ {
		p.planN.InPlaceLanes(dst[z*n*m:(z+1)*n*m], m, sign)
	}
	p.planK.InPlaceLanes(dst, n*m, sign)
}

// pencilInPlace: the non-overlapped baseline. Every stage reads and writes
// the full cube in place; stage 2 works at stride m within slabs and stage 3
// at stride n·m across the whole cube — the cache-hostile access pattern of
// a pencil-pencil library on a large transform.
func (p *Plan) pencilInPlace(x []complex128, sign int) {
	k, n, m := p.k, p.n, p.m
	workers := p.cfg.Workers
	parallelFor(workers, k*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			p.planM.InPlace(x[r*m:(r+1)*m], sign)
		}
	})
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			p.planN.InPlaceLanes(x[z*n*m:(z+1)*n*m], m, sign)
		}
	})
	// Stage 3: DFT_k ⊗ I_{nm}, parallelized over lane chunks via
	// gather/transform/scatter to keep the strided behaviour.
	parallelFor(workers, n*m, func(lo, hi int) {
		p.stridedLanes(x, p.planK, k, n*m, lo, hi, sign)
	})
}

// slabInPlace: slab-pencil decomposition. Stages 1+2 are fused per z-slab
// (one pass over each slab, which on big-LLC machines stays cache resident),
// then the strided z-stage runs as in pencil. This reduces main-memory round
// trips from three to two (§II-B).
func (p *Plan) slabInPlace(x []complex128, sign int) {
	k, n, m := p.k, p.n, p.m
	workers := p.cfg.Workers
	parallelFor(workers, k, func(lo, hi int) {
		for z := lo; z < hi; z++ {
			slab := x[z*n*m : (z+1)*n*m]
			for r := 0; r < n; r++ {
				p.planM.InPlace(slab[r*m:(r+1)*m], sign)
			}
			p.planN.InPlaceLanes(slab, m, sign)
		}
	})
	parallelFor(workers, n*m, func(lo, hi int) {
		p.stridedLanes(x, p.planK, k, n*m, lo, hi, sign)
	})
}

// stridedLanes applies DFT_len ⊗ I over the lane range [lo, hi) of a cube
// whose lane stride is `stride`: it gathers the lanes, transforms them with
// the lane driver, and scatters them back.
func (p *Plan) stridedLanes(x []complex128, plan *fft1d.Plan, length, stride, lo, hi, sign int) {
	w := hi - lo
	if w <= 0 {
		return
	}
	tmp := make([]complex128, length*w)
	out := make([]complex128, length*w)
	for z := 0; z < length; z++ {
		copy(tmp[z*w:(z+1)*w], x[z*stride+lo:z*stride+hi])
	}
	plan.Lanes(out, tmp, w, sign)
	for z := 0; z < length; z++ {
		copy(x[z*stride+lo:z*stride+hi], out[z*w:(z+1)*w])
	}
}

func parallelFor(workers, total int, f func(lo, hi int)) {
	if workers <= 1 || total <= 1 {
		f(0, total)
		return
	}
	if workers > total {
		workers = total
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			lo, hi := stagegraph.Partition(total, w, workers)
			f(lo, hi)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
