// Package serve is a batched, backpressured FFT serving layer: callers
// submit transform requests of any rank to a bounded queue, each executor
// takes the same-shape 1D requests queued behind the one it picked up as a
// batch that shares one plan lookup and one settlement, and every plan
// comes from a bounded ref-counted LRU cache so plans are reused across
// requests instead of rebuilt per request — the paper's
// zero-steady-state-allocation executors, amortized across a request
// stream. A cached plan is its schedule: the lanes and work arrays its
// transforms run on are leased per run from the process's one pool
// (stagegraph's engine), so an idle cached plan holds neither.
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fft1d"
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

func (k PlanKey) shape() core.Shape {
	return core.Shape{Rank: k.Rank, Dims: [3]int{k.D0, k.D1, k.D2}, Real: k.Real}
}

// Plan is one cached plan: the core.Plan of its key's domain and dims. A
// complex rank-1 plan is the one lone requests, coalesced batches,
// repro.FFT1D and the shared-handle facade all run at every size — a
// direct Stockham chain with no lanes, run on the calling executor's
// goroutine — so a request's bits never depend on how it was batched; every
// other key holds a pipelined plan, whose runs lease their lanes. The
// rank-1 real plan batches natively (ExecuteRealBatch runs many packed rows
// in one pipeline sweep), so it serves both the singleton and the
// coalesced path. An entry point of the other domain returns an error
// wrapping core.ErrDomain.
type Plan struct {
	key PlanKey
	p   *core.Plan
}

func buildPlan(key PlanKey) (*Plan, error) {
	s := key.shape()
	p, err := core.NewPlan(key.Cfg, key.Real, s.Dims[:s.Rank]...)
	if err != nil {
		return nil, err
	}
	return &Plan{key: key, p: p}, nil
}

// Key returns the plan's identity.
func (p *Plan) Key() PlanKey { return p.key }

// Len returns the element count of one transform.
func (p *Plan) Len() int { return p.p.Len() }

// Core returns the underlying plan.
func (p *Plan) Core() *core.Plan { return p.p }

// Execute runs one out-of-place complex transform; inverse transforms are
// normalized so Execute(inverse) ∘ Execute(forward) is the identity.
func (p *Plan) Execute(dst, src []complex128, inverse bool) error {
	if inverse {
		return p.p.Inverse(dst, src)
	}
	return p.p.Transform(dst, src, fft1d.Forward)
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
	if inverse {
		return p.p.InverseReal(re, spec, count)
	}
	return p.p.ForwardReal(spec, re, count)
}

// PlanCache is a bounded ref-counted LRU of plans keyed by PlanKey.
// Get pins the plan for the duration of a request; eviction closes a plan
// only once the last in-flight user releases it, and closing the last open
// plan lets the engine release its idle lanes and arrays.
type PlanCache struct {
	c *lru.Cache[PlanKey, *Plan]
}

// NewPlanCache builds a cache holding at most capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: lru.New[PlanKey, *Plan](capacity, func(_ PlanKey, p *Plan) {
		p.p.Close()
	})}
}

// Get returns the plan for key, building it on a miss, plus a release
// function the caller must invoke exactly once when done with the plan.
func (pc *PlanCache) Get(key PlanKey) (*Plan, func(), error) {
	key = normalizeKey(key)
	if err := key.shape().Check(core.MaxElems); err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	return pc.c.GetOrCreate(key, func() (*Plan, error) { return buildPlan(key) })
}

// Purge evicts every plan; unpinned plans close immediately, pinned ones
// when their last user releases.
func (pc *PlanCache) Purge() { pc.c.Purge() }

// Stats returns hit/miss/eviction counters and occupancy.
func (pc *PlanCache) Stats() lru.Stats { return pc.c.Stats() }
