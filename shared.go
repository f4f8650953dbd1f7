package repro

import (
	"repro/internal/lru"
	"repro/internal/serve"
)

// SharedPlans is a bounded, reference-counted pool of FFT plans. Plans —
// and with them their persistent worker teams, double buffers and twiddle
// tables — are expensive to build and cheap to share: two callers asking
// for the same shape and options get the same underlying executor (all
// entry points are concurrency-safe). The pool holds at most capacity
// plans; the least recently used plan is evicted when a new shape would
// overflow, but an evicted plan is only torn down once every outstanding
// handle has been Closed, so eviction never races in-flight transforms.
//
// This is the same cache that backs the serving daemon (cmd/fftserved);
// SharedPlans exposes it to embedders who want bounded plan reuse without
// the request pipeline.
type SharedPlans struct {
	c *serve.PlanCache
}

// NewSharedPlans builds a pool holding at most capacity plans (capacity ≥ 1).
func NewSharedPlans(capacity int) *SharedPlans {
	return &SharedPlans{c: serve.NewPlanCache(capacity)}
}

func (s *SharedPlans) get(rank, d0, d1, d2 int, real bool, opts []Option) (*serve.Plan, func(), error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, nil, err
	}
	return s.c.Get(serve.PlanKey{Rank: rank, D0: d0, D1: d1, D2: d2, Real: real, Cfg: cfg})
}

// FFT1D returns a shared 1D plan handle for size n. Close the handle to
// release its pin on the pool; transforms on it then return ErrClosed.
func (s *SharedPlans) FFT1D(n int, opts ...Option) (*FFT1D, error) {
	p, release, err := s.get(1, n, 0, 0, false, opts)
	if err != nil {
		return nil, err
	}
	return &FFT1D{p: p.P1(), release: release}, nil
}

// FFT2D returns a shared 2D plan handle for n×m matrices.
func (s *SharedPlans) FFT2D(n, m int, opts ...Option) (*FFT2D, error) {
	p, release, err := s.get(2, n, m, 0, false, opts)
	if err != nil {
		return nil, err
	}
	return &FFT2D{handle{p: p.Core(), release: release}}, nil
}

// FFT3D returns a shared 3D plan handle for k×n×m cubes.
func (s *SharedPlans) FFT3D(k, n, m int, opts ...Option) (*FFT3D, error) {
	p, release, err := s.get(3, k, n, m, false, opts)
	if err != nil {
		return nil, err
	}
	return &FFT3D{handle{p: p.Core(), release: release}}, nil
}

// RealFFT1D returns a shared real-input 1D plan handle for even size n.
func (s *SharedPlans) RealFFT1D(n int, opts ...Option) (*RealFFT1D, error) {
	p, release, err := s.get(1, n, 0, 0, true, opts)
	if err != nil {
		return nil, err
	}
	return &RealFFT1D{handle{p: p.Core(), release: release}}, nil
}

// RealFFT2D returns a shared real-input 2D plan handle for n×m grids
// (m even).
func (s *SharedPlans) RealFFT2D(n, m int, opts ...Option) (*RealFFT2D, error) {
	p, release, err := s.get(2, n, m, 0, true, opts)
	if err != nil {
		return nil, err
	}
	return &RealFFT2D{handle{p: p.Core(), release: release}}, nil
}

// RealFFT3D returns a shared real-input 3D plan handle for k×n×m grids
// (m even).
func (s *SharedPlans) RealFFT3D(k, n, m int, opts ...Option) (*RealFFT3D, error) {
	p, release, err := s.get(3, k, n, m, true, opts)
	if err != nil {
		return nil, err
	}
	return &RealFFT3D{handle{p: p.Core(), release: release}}, nil
}

// Close evicts every plan in the pool. Plans without outstanding handles
// are torn down immediately; the rest as their handles are Closed. The
// pool remains usable (a later constructor call rebuilds).
func (s *SharedPlans) Close() { s.c.Purge() }

// CacheStats is a snapshot of a plan pool's effectiveness counters.
type CacheStats = lru.Stats

// Stats returns the pool's hit/miss/eviction counters and occupancy.
func (s *SharedPlans) Stats() CacheStats { return s.c.Stats() }
