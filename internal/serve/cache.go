// Package serve is a batched, backpressured FFT serving layer: callers
// submit transform requests of any rank to a bounded queue, each executor
// takes the same-shape 1D requests queued behind the one it picked up as a
// batch that shares one plan lookup and one settlement, and every plan
// comes from a bounded ref-counted LRU cache so
// worker teams are reused across requests instead of rebuilt per request —
// the paper's zero-steady-state-allocation executors, amortized across a
// request stream.
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/lru"
)

// PlanKey identifies one cached plan. Cfg carries the execution shape —
// worker split, buffer size, μ, all the machine-derived parameters — so
// plans built for different machines never collide. Real selects the
// real-input (r2c/c2r) pipeline over the complex one; the dims then
// describe the real grid and the last dim must be even. normalizeKey
// reduces a key to what its plan reads: the Tracer is always dropped
// (tracing is a per-server concern, not part of plan identity), and a
// complex rank-1 key reads no Cfg at all.
type PlanKey struct {
	Rank       int
	D0, D1, D2 int // dims, slowest first; unused trailing dims are 0
	Real       bool
	Cfg        core.Config
}

func normalizeKey(k PlanKey) PlanKey {
	k.Cfg.Tracer = nil
	if k.Rank == 1 && !k.Real {
		k.Cfg = core.Config{}
	}
	return k
}

// Validate checks that the key describes a buildable transform.
func (k PlanKey) Validate() error {
	switch k.Rank {
	case 1:
		if k.D0 < 1 || k.D1 != 0 || k.D2 != 0 {
			return fmt.Errorf("serve: rank-1 key needs D0 ≥ 1 and D1 = D2 = 0, got %d×%d×%d", k.D0, k.D1, k.D2)
		}
	case 2:
		if k.D0 < 1 || k.D1 < 1 || k.D2 != 0 {
			return fmt.Errorf("serve: rank-2 key needs D0,D1 ≥ 1 and D2 = 0, got %d×%d×%d", k.D0, k.D1, k.D2)
		}
	case 3:
		if k.D0 < 1 || k.D1 < 1 || k.D2 < 1 {
			return fmt.Errorf("serve: rank-3 key needs all dims ≥ 1, got %d×%d×%d", k.D0, k.D1, k.D2)
		}
	default:
		return fmt.Errorf("serve: rank must be 1, 2 or 3, got %d", k.Rank)
	}
	if k.Real {
		last := k.lastDim()
		if last < 2 || last%2 != 0 {
			return fmt.Errorf("serve: real transforms need an even last dim ≥ 2, got %d", last)
		}
	}
	return nil
}

// dims returns the key's Rank extents, slowest first.
func (k PlanKey) dims() []int { return []int{k.D0, k.D1, k.D2}[:k.Rank] }

// lastDim returns the fastest-varying (contiguous) dimension.
func (k PlanKey) lastDim() int { return k.dims()[k.Rank-1] }

// Len returns the element count of one transform under this key: the
// complex element count for complex plans, the real element count for real
// plans (see SpectrumLen for the half-spectrum side).
func (k PlanKey) Len() int {
	n := k.D0
	if k.Rank >= 2 {
		n *= k.D1
	}
	if k.Rank >= 3 {
		n *= k.D2
	}
	return n
}

// SpectrumLen returns the Hermitian half-spectrum element count of a real
// plan: the product of the dims with the last replaced by last/2+1. For
// complex plans it equals Len.
func (k PlanKey) SpectrumLen() int {
	if !k.Real {
		return k.Len()
	}
	last := k.lastDim()
	return k.Len() / last * (last/2 + 1)
}

// Plan is one cached executor. A complex rank-1 plan is the fft1d.Plan of
// D0 that lone requests, coalesced batches, repro.FFT1D and the
// shared-handle facade all run at every size, so a request's bits never
// depend on how it was batched; every other key — complex rank 2/3, real
// rank 1–3 — is the core.Plan of its domain and dims, with its persistent
// worker team. The rank-1 real plan batches natively (ExecuteRealBatch runs
// many packed rows in one pipeline sweep), so it serves both the singleton
// and the coalesced path. An entry point of the other domain returns an
// error wrapping core.ErrDomain.
type Plan struct {
	key PlanKey
	p1  *fft1d.Plan
	p   *core.Plan
}

func buildPlan(key PlanKey) (*Plan, error) {
	if key.Rank == 1 && !key.Real {
		return &Plan{key: key, p1: fft1d.NewPlan(key.D0)}, nil
	}
	p, err := core.NewPlan(key.Cfg, key.Real, key.dims()...)
	if err != nil {
		return nil, err
	}
	return &Plan{key: key, p: p}, nil
}

// Key returns the plan's identity.
func (p *Plan) Key() PlanKey { return p.key }

// Len returns the element count of one transform.
func (p *Plan) Len() int { return p.key.Len() }

// P1 returns the underlying complex 1D plan (nil unless a complex rank-1 key).
func (p *Plan) P1() *fft1d.Plan { return p.p1 }

// Core returns the underlying pipelined plan (nil for a complex rank-1 key).
func (p *Plan) Core() *core.Plan { return p.p }

// Execute runs one out-of-place complex transform; inverse transforms are
// normalized so Execute(inverse) ∘ Execute(forward) is the identity.
func (p *Plan) Execute(dst, src []complex128, inverse bool) error {
	return p.execute(dst, src, inverse, nil)
}

// execute is Execute with the rank-1 plan's scratch drawn from the calling
// executor's arena (nil: the process-wide pool).
func (p *Plan) execute(dst, src []complex128, inverse bool, ar *kernels.Arena) error {
	switch {
	case p.p1 != nil:
		return p.p1.Execute(dst, src, inverse, ar)
	case inverse:
		return p.p.Inverse(dst, src)
	default:
		return p.p.Transform(dst, src, fft1d.Forward)
	}
}

// ExecuteReal runs one out-of-place real transform: forward reads the real
// grid and writes its Hermitian half spectrum, inverse (normalized) reads
// the half spectrum and writes the real grid.
func (p *Plan) ExecuteReal(spec []complex128, re []float64, inverse bool) error {
	return p.ExecuteRealBatch(spec, re, 1, inverse)
}

// ExecuteRealBatch transforms count contiguously packed real rank-1 rows
// (re holds count·n reals, spec count·(n/2+1) half spectra) in one
// pipeline sweep — the coalesced fast path for same-shape real 1D
// requests. A real plan of rank 2 or 3 takes count = 1.
func (p *Plan) ExecuteRealBatch(spec []complex128, re []float64, count int, inverse bool) error {
	switch {
	case p.p1 != nil:
		return fmt.Errorf("serve: real execution on complex rank-1 key %d: %w", p.key.D0, core.ErrDomain)
	case inverse:
		return p.p.InverseReal(re, spec, count)
	default:
		return p.p.ForwardReal(spec, re, count)
	}
}

func (p *Plan) close() {
	if p.p != nil { // a rank-1 complex plan is immutable data: nothing to release
		p.p.Close()
	}
}

// PlanCache is a bounded ref-counted LRU of executors keyed by PlanKey.
// Get pins the plan for the duration of a request; eviction tears a plan's
// worker team down only once the last in-flight user releases it.
type PlanCache struct {
	c *lru.Cache[PlanKey, *Plan]
}

// NewPlanCache builds a cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: lru.New[PlanKey, *Plan](capacity, func(_ PlanKey, p *Plan) {
		p.close()
	})}
}

// Get returns the plan for key, building it on a miss, plus a release
// function the caller must invoke exactly once when done with the plan.
func (pc *PlanCache) Get(key PlanKey) (*Plan, func(), error) {
	key = normalizeKey(key)
	if err := key.Validate(); err != nil {
		return nil, nil, err
	}
	return pc.c.GetOrCreate(key, func() (*Plan, error) { return buildPlan(key) })
}

// Purge evicts every plan; unpinned plans close immediately, pinned ones
// when their last user releases.
func (pc *PlanCache) Purge() { pc.c.Purge() }

// Stats returns hit/miss/eviction counters and occupancy.
func (pc *PlanCache) Stats() lru.Stats { return pc.c.Stats() }
