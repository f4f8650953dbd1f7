// Package fft1d implements plan-based one-dimensional fast Fourier
// transforms over complex128 data.
//
// The planner covers:
//
//   - power-of-two sizes via an iterative Stockham autosort decomposition
//     (no bit-reversal pass, contiguous writes): by default a chain of fused
//     radix-16 stages with one leading radix-8 stage when log₂(n) is odd and
//     a trailing radix-4 stage the stage-graph store leg can fold (see
//     pow2Radices), with radix-8/4/2 caps selectable via NewPlanRadix for
//     ablation;
//   - arbitrary composite sizes via a recursive mixed-radix Cooley–Tukey
//     factorization, DFT_mn = (DFT_m ⊗ I_n) D_n^{mn} (I_m ⊗ DFT_n) L_m^{mn},
//     with hand-unrolled base codelets for 2,3,4,5,7,8;
//   - large prime sizes via Bluestein's chirp-z algorithm on top of the
//     power-of-two path.
//
// Every driver accepts a lane count μ, so the same plan computes DFT_n ⊗ I_μ
// — the cacheline-granularity vector kernel at the heart of the paper's
// blocked decompositions — as well as plain pencils (μ = 1), batched pencils
// (I_b ⊗ DFT_n) and strided pencils (gather/scatter, used by the baseline
// implementations).
//
// Forward transforms are unnormalized; inverse transforms are unnormalized
// too (apply Scale(x, 1/n) for a round trip). This matches FFTW convention.
package fft1d

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/kernels"
	"repro/internal/lru"
	"repro/internal/twiddle"
)

// Direction re-exports for convenience.
const (
	Forward = kernels.Forward
	Inverse = kernels.Inverse
)

// planKind discriminates the algorithm a Plan uses.
type planKind int

const (
	kindSmall     planKind = iota // dense/unrolled codelet
	kindPow2                      // iterative Stockham radix-4/2
	kindMixed                     // recursive Cooley–Tukey n = f · rest
	kindBluestein                 // chirp-z for large primes
)

// Plan holds the precomputed factorization and twiddle tables for a 1D DFT
// of a fixed size. Plans are immutable after construction and safe for
// concurrent use; scratch buffers are always supplied by the caller or drawn
// from an internal pool.
type Plan struct {
	n    int
	kind planKind
	// maxRadix is the largest Stockham stage radix a pow2 plan may use
	// (2, 4, 8 or 16); 0 for non-pow2 plans, where it is meaningless.
	maxRadix int

	// kindSmall
	small func(dst, src []complex128, sign int)

	// kindPow2: radices of each Stockham stage, outermost first, and the
	// per-stage twiddles for each direction (index 0 forward, 1 inverse),
	// built lazily.
	radices   []int
	stageOnce [2]sync.Once
	stages    [2][]kernels.StageTwiddles

	// kindMixed: n = f · rest.
	f, rest  int
	subF     *Plan
	subRest  *Plan
	diagOnce [2]sync.Once
	diag     [2][]complex128 // D_rest^{n} twiddles

	// kindBluestein
	blue *bluesteinPlan
}

// planKey caches plans by size and radix preference. Sizes where the radix
// is meaningless (non-pow2, codelet) normalize radix to 0 so all callers
// share one entry.
type planKey struct{ n, radix int }

// planCacheCapacity bounds the process-wide plan cache. Long-running servers
// sweep many sizes (every mixed-radix factorization plants sub-plans here
// too), and an unbounded map retains every twiddle table ever built; 128
// entries cover any realistic working set while letting cold sizes fall to
// the GC. Plans are immutable data with nothing to tear down, so eviction
// needs no onClose and callers never hold cache references.
const planCacheCapacity = 128

var planCache = lru.New[planKey, *Plan](planCacheCapacity, nil)

// NewPlan returns a (possibly cached) plan for size n ≥ 1 using the default
// radix mix (fused radix-16 sweeps for power-of-two sizes).
func NewPlan(n int) *Plan { return NewPlanRadix(n, 0) }

// CheckRadix validates a Stockham radix cap — 0 (the default, 16) or one of
// 2, 4, 8, 16 — on behalf of package pkg, whose name prefixes the error.
func CheckRadix(pkg string, radix int) error {
	switch radix {
	case 0, 2, 4, 8, 16:
		return nil
	}
	return fmt.Errorf("%s: radix must be 0, 2, 4, 8 or 16, got %d", pkg, radix)
}

// NewPlanRadix returns a (possibly cached) plan for size n ≥ 1 whose
// power-of-two path uses Stockham stages of radix at most maxRadix ∈
// {2, 4, 8, 16}; 0 selects the default (16: fused two-stage codelets with a
// trailing radix-4 stage reserved for store folding, see pow2Radices).
// Lower radices make more passes over the buffer and exist for ablation
// (stagegraph.Ablation.Radix). maxRadix only affects power-of-two sizes > 8;
// other sizes share one plan.
func NewPlanRadix(n, maxRadix int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft1d: NewPlanRadix(%d): size must be ≥ 1", n))
	}
	if err := CheckRadix("fft1d", maxRadix); err != nil {
		panic(err.Error())
	}
	if maxRadix == 0 {
		maxRadix = 16
	}
	key := planKey{n: n, radix: maxRadix}
	if n <= 8 || n&(n-1) != 0 {
		key.radix = 0 // radix is irrelevant; share the plan
	}
	p, release, _ := planCache.GetOrCreate(key, func() (*Plan, error) {
		return buildPlan(n, maxRadix), nil
	})
	// Released immediately: an evicted plan stays valid for everyone still
	// pointing at it (it is just dropped to the GC), so holding a cache
	// reference for the plan's lifetime would buy nothing.
	release()
	return p
}

// PlanCacheStats reports the plan cache's effectiveness counters.
func PlanCacheStats() lru.Stats { return planCache.Stats() }

// N returns the transform size.
func (p *Plan) N() int { return p.n }

// Kind returns a short human-readable description of the algorithm chosen.
func (p *Plan) Kind() string {
	switch p.kind {
	case kindSmall:
		return "codelet"
	case kindPow2:
		return "stockham-pow2"
	case kindMixed:
		return fmt.Sprintf("mixed(%d×%d)", p.f, p.rest)
	case kindBluestein:
		return "bluestein"
	}
	return "unknown"
}

func buildPlan(n, maxRadix int) *Plan {
	p := &Plan{n: n}
	switch {
	case n <= 8:
		p.kind = kindSmall
		p.small = kernels.Small(n)
	case n&(n-1) == 0:
		p.kind = kindPow2
		p.maxRadix = maxRadix
		p.radices = pow2Radices(n, maxRadix)
	default:
		f := smallestCodeletFactor(n)
		if f == 0 {
			// n is prime (or has no small factor and is itself prime
			// since smallestCodeletFactor scans all primes ≤ √n).
			p.kind = kindBluestein
			p.blue = newBluestein(n)
		} else {
			p.kind = kindMixed
			p.f = f
			p.rest = n / f
			p.subF = NewPlan(f)
			p.subRest = NewPlan(n / f)
		}
	}
	return p
}

// pow2Radices returns the Stockham stage radices for n = 2^k under a radix
// cap.
//
// maxRadix 16 (the default) packs the front of the chain with fused
// radix-16 codelets — each one computes two radix-4 rank stages in
// registers, halving the passes over the buffer — while always reserving a
// trailing radix-4 stage: the final stage's table twiddles are trivial
// (W_j[0] = 1 since m = 1), which lets the stage-graph executor fold that
// whole sweep into its scatter/store leg instead of running it as a
// separate pass. A leading radix-8 stage absorbs odd k as before.
//
// maxRadix 8 uses one leading radix-8 stage when k is odd and radix-4
// stages for everything else: measured on amd64 with the 256-bit codelet,
// whose four odd differences t_k spill to the stack frame (the 512-bit one
// parks them in Z16–Z19), chains of radix-8 stages lost to radix-4 per
// element — but a single radix-8 stage replaces the radix-2 stage an odd k
// otherwise needs, saving a whole pass over the buffer (the first stage,
// where its reads are unit-stride, is the cheapest place for it). maxRadix 4
// is the pre-radix-8 plan (one leading radix-2 when k is odd); maxRadix 2 is
// the k-pass ablation baseline.
func pow2Radices(n, maxRadix int) []int {
	k := bits.TrailingZeros(uint(n))
	var r []int
	switch maxRadix {
	case 2:
		for ; k > 0; k-- {
			r = append(r, 2)
		}
	case 4:
		if k%2 == 1 {
			r = append(r, 2)
			k--
		}
		for ; k > 0; k -= 2 {
			r = append(r, 4)
		}
	case 8:
		if k%2 == 1 {
			r = append(r, 8)
			k -= 3
		}
		for ; k > 0; k -= 2 {
			r = append(r, 4)
		}
	default: // 16: fused pairs up front, trailing radix-4 reserved for folding
		switch k {
		case 4:
			return []int{4, 4}
		case 5:
			return []int{8, 4}
		case 6:
			return []int{16, 4}
		case 7:
			return []int{8, 4, 4}
		}
		if k%4 == 0 {
			// A pure radix-16 chain needs no odd trailing stage, and
			// measured on amd64 it beats reserving a radix-4 for the
			// store fold: the fold's leg-major scatter re-reads each
			// input four times, which costs more than the sweep the
			// fold saves when the sweep count is already minimal.
			for ; k > 0; k -= 4 {
				r = append(r, 16)
			}
			return r
		}
		rem := k - 2 // trailing radix-4 reserved
		if rem%2 == 1 {
			r = append(r, 8)
			rem -= 3
		}
		for ; rem >= 4; rem -= 4 {
			r = append(r, 16)
		}
		if rem == 2 {
			r = append(r, 4)
		}
		r = append(r, 4)
	}
	return r
}

// smallestCodeletFactor returns the preferred factor to peel from composite
// n: the largest codelet size in {8,4,2,3,5,7} dividing n, else the smallest
// prime factor ≤ 31; 0 if n is prime.
func smallestCodeletFactor(n int) int {
	for _, f := range []int{8, 4, 5, 7, 3, 2} {
		if n%f == 0 {
			return f
		}
	}
	for f := 11; f*f <= n; f += 2 {
		if n%f == 0 {
			return f
		}
	}
	return 0
}

func signIdx(sign int) int {
	if sign == Forward {
		return 0
	}
	return 1
}

// stageTwiddles returns the lazily built per-stage twiddles for direction
// sign on a pow2 plan.
func (p *Plan) stageTwiddles(sign int) []kernels.StageTwiddles {
	i := signIdx(sign)
	p.stageOnce[i].Do(func() {
		st := make([]kernels.StageTwiddles, len(p.radices))
		n1 := p.n
		for s, r := range p.radices {
			st[s] = kernels.NewStageTwiddles(n1, r, sign)
			n1 /= r
		}
		p.stages[i] = st
	})
	return p.stages[i]
}

// FoldRadix reports whether the plan's interleaved stage chain ends in a
// stage the stage-graph store leg can absorb: the trailing radix-4 stage of
// a power-of-two chain, whose table twiddles are trivial (m = 1 at the last
// stage, so W_j[0] = 1). It returns that radix (4), or 0 when no stage can
// be folded. Callers that fold run BatchLanesPrefixArena for the compute
// pass and apply the final butterfly during the store.
func (p *Plan) FoldRadix() int {
	if p.kind != kindPow2 || len(p.radices) == 0 {
		return 0
	}
	if last := p.radices[len(p.radices)-1]; last == 4 {
		return 4
	}
	return 0
}

// diagTwiddles returns the mixed-radix D_rest^{n} diagonal for direction
// sign (entry i·rest+j = ω_n^{i·j}, conjugated for the inverse).
func (p *Plan) diagTwiddles(sign int) []complex128 {
	i := signIdx(sign)
	p.diagOnce[i].Do(func() {
		d := twiddle.Shared.Diag(p.f, p.rest)
		if sign == Forward {
			p.diag[i] = d
			return
		}
		c := make([]complex128, len(d))
		for k, w := range d {
			c[k] = complex(real(w), -imag(w))
		}
		p.diag[i] = c
	})
	return p.diag[i]
}

// arenaPool backs the legacy arena-less entry points (Transform, InPlace,
// Batch, …). Plans are cached process-wide in planCache and shared between
// callers, so scratch cannot live unsynchronized on the Plan; the executor
// path threads each compute worker's private arena through the *Arena entry
// points instead, and everything else borrows a pooled arena here. Get/Put
// of a pointer type is allocation-free once the pool is warm.
var arenaPool = sync.Pool{New: func() any { return kernels.NewArena(0, 0) }}

func getArena() *kernels.Arena { return arenaPool.Get().(*kernels.Arena) }

func putArena(a *kernels.Arena) {
	a.Reset()
	arenaPool.Put(a)
}

// Scale multiplies x elementwise by s; use Scale(x, 1/n) after an inverse
// transform for a normalized round trip.
func Scale(x []complex128, s float64) {
	cs := complex(s, 0)
	for i := range x {
		x[i] *= cs
	}
}
