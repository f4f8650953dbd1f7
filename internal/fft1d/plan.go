// Package fft1d implements plan-based one-dimensional fast Fourier
// transforms over complex128 data.
//
// Every size runs one algorithm: a Stockham autosort chain of radix stages
// (no bit-reversal pass, contiguous writes), run by one batched driver
// behind every entry point. The planner factors n = q·2ᵏ once:
//
//   - the odd primes of q come first, smallest first, each a generic radix-r
//     stage: it gathers the r inputs of a butterfly, transforms them with
//     kernels.Small(r) (r ≤ 8) or Bluestein's chirp-z algorithm (primes above
//     8), and multiplies output j by the twiddle ω_{n1}^{j·p};
//   - the 2ᵏ part runs the codelet stages of pow2Radices: by default fused
//     radix-16 stages, a leading radix-8 stage when k is odd and a trailing
//     radix-4 stage the stage-graph store leg can fold, with radix-8/4/2 caps
//     selectable via NewPlanRadix for ablation;
//   - n ≤ 8 is one generic stage.
//
// The driver accepts a lane count μ, so the same plan computes DFT_n ⊗ I_μ
// — the cacheline-granularity vector kernel at the heart of the paper's
// blocked decompositions — as well as plain pencils (μ = 1), batched pencils
// (I_b ⊗ DFT_n ⊗ I_μ) and strided pencils (gather/scatter, used by the
// baseline implementations).
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

// Plan holds the stage chain and twiddle tables for a 1D DFT of a fixed
// size. Plans are immutable after construction and safe for concurrent use;
// scratch buffers are always supplied by the caller or drawn from an
// internal pool.
type Plan struct {
	n      int
	stages []stage
	// The per-stage twiddles for each direction (index 0 forward, 1
	// inverse), built lazily.
	twOnce [2]sync.Once
	tw     [2][]stageTwiddles
}

// stage is one radix-r step of the chain. A codelet stage (small and blue
// nil, r ∈ {2, 4, 8, 16}) runs the kernels' Stockham steps; a generic stage
// transforms every gathered r-point butterfly with small (r ≤ 8) or blue (a
// prime r > 8).
type stage struct {
	r     int
	small func(dst, src []complex128, sign int)
	blue  *bluesteinPlan
}

func (st stage) generic() bool { return st.small != nil || st.blue != nil }

// stageTwiddles holds one stage's twiddles: a codelet stage's table, or a
// generic stage's ω_{n1}^{j·p} at p·r + j (nil when the stage has one
// butterfly per lane, m = 1, where every twiddle is 1).
type stageTwiddles struct {
	codelet kernels.StageTwiddles
	generic []complex128
}

// planKey caches plans by size and radix cap. Sizes the cap cannot change
// (n ≤ 8 and odd n, which have no codelet stage) normalize it to 0 so all
// callers share one entry.
type planKey struct{ n, radix int }

// planCacheCapacity bounds the process-wide plan cache. Long-running servers
// sweep many sizes (every Bluestein stage plants its power-of-two plan here
// too), and an unbounded map retains every twiddle table ever built; 128
// entries cover any realistic working set while letting cold sizes fall to
// the GC. Plans are immutable data with nothing to tear down, so eviction
// needs no onClose and callers never hold cache references.
const planCacheCapacity = 128

var planCache = lru.New[planKey, *Plan](planCacheCapacity, nil)

// NewPlan returns a (possibly cached) plan for size n ≥ 1 using the default
// radix mix (fused radix-16 sweeps for the power-of-two part).
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
// power-of-two part uses Stockham stages of radix at most maxRadix ∈
// {2, 4, 8, 16}; 0 selects the default (16: fused two-stage codelets with a
// trailing radix-4 stage reserved for store folding, see pow2Radices).
// Lower radices make more passes over the buffer and exist for ablation
// (stagegraph.Ablation.Radix). maxRadix does not affect n ≤ 8 or odd n,
// which share one plan.
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
	if n <= 8 || n%2 == 1 {
		key.radix = 0 // no codelet stage; share the plan
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

// N returns the transform size.
func (p *Plan) N() int { return p.n }

// Kind names the chain by its stage radices, outermost first, e.g.
// "stockham[3 16 16 4]" for 3·2¹⁰.
func (p *Plan) Kind() string {
	r := make([]int, len(p.stages))
	for i, st := range p.stages {
		r[i] = st.r
	}
	return fmt.Sprintf("stockham%v", r)
}

func buildPlan(n, maxRadix int) *Plan {
	p := &Plan{n: n}
	if n <= 8 {
		p.stages = []stage{genericStage(n)}
		return p
	}
	pow2 := n & -n
	for q, f := n/pow2, 3; q > 1; f += 2 {
		if f*f > q {
			f = q // what is left of q is prime
		}
		for ; q%f == 0; q /= f {
			p.stages = append(p.stages, genericStage(f))
		}
	}
	for _, r := range pow2Radices(pow2, maxRadix) {
		p.stages = append(p.stages, stage{r: r})
	}
	return p
}

func genericStage(r int) stage {
	if r <= 8 {
		return stage{r: r, small: kernels.Small(r)}
	}
	return stage{r: r, blue: newBluestein(r)}
}

// pow2Radices returns the Stockham stage radices for n = 2^k under a radix
// cap. A composite size's short power-of-two part (k < 4) is one stage when
// the cap allows it.
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
	switch {
	case k == 0:
		return nil
	case k < 4 && n <= maxRadix:
		return []int{n}
	}
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

func signIdx(sign int) int {
	if sign == Forward {
		return 0
	}
	return 1
}

// twiddles returns the lazily built per-stage twiddles for direction sign.
func (p *Plan) twiddles(sign int) []stageTwiddles {
	i := signIdx(sign)
	p.twOnce[i].Do(func() {
		tw := make([]stageTwiddles, len(p.stages))
		n1 := p.n
		for s, st := range p.stages {
			m := n1 / st.r
			switch {
			case !st.generic():
				tw[s].codelet = kernels.NewStageTwiddles(n1, st.r, sign)
			case m > 1:
				g := make([]complex128, n1)
				for q := range g {
					w := twiddle.Omega(n1, q%st.r*(q/st.r))
					if sign == Inverse {
						w = complex(real(w), -imag(w))
					}
					g[q] = w
				}
				tw[s].generic = g
			}
			n1 = m
		}
		p.tw[i] = tw
	})
	return p.tw[i]
}

// FoldRadix reports whether the plan's chain ends in a stage the
// stage-graph store leg can absorb: a trailing radix-4 codelet stage, whose
// table twiddles are trivial (m = 1 at the last stage, so W_j[0] = 1). It
// returns that radix (4), or 0 when no stage can be folded. Callers that
// fold run BatchLanesPrefixArena for the compute pass and apply the final
// butterfly during the store.
func (p *Plan) FoldRadix() int {
	if last := p.stages[len(p.stages)-1]; last.r == 4 && !last.generic() {
		return 4
	}
	return 0
}

// SinkRadix reports the radix of the chain's last stage when a stage-graph
// sink can take it (BatchLanesSinkArena): a radix-8 or fused radix-16
// codelet stage, whose outputs the kernels' sink codelets write through a
// rotation. It returns 0 for a chain that ends in a radix-4 stage (the store
// leg folds that one), a radix-2 stage or a generic one.
func (p *Plan) SinkRadix() int {
	if last := p.stages[len(p.stages)-1]; (last.r == 8 || last.r == 16) && !last.generic() {
		return last.r
	}
	return 0
}

// Bodies reports how many butterfly bodies the codelets run on a batch of
// count lane groups (DFT_n ⊗ I_mu) — the times they advance the arena's
// prefetch cursor — through the whole chain, or through its fold prefix
// (BatchLanesPrefixArena) when prefix is set. Generic stages run none.
func (p *Plan) Bodies(count, mu int, prefix bool) int {
	t := len(p.stages)
	if prefix {
		t--
	}
	n1, s, b := p.n, mu, 0
	for _, st := range p.stages[:t] {
		m := n1 / st.r
		if !st.generic() {
			b += kernels.Bodies(st.r, m, s)
		}
		n1, s = m, s*st.r
	}
	return count * b
}

// arenaPool backs the arena-less entry points (Transform, InPlace, Lanes,
// Strided). Plans are cached process-wide in planCache and shared between
// callers, so scratch cannot live unsynchronized on the Plan; the executor
// path threads each lane's private arena through the *Arena entry
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
