package stagegraph

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
)

// TestStoreFoldMatchesFullTransform runs a StoreRadix=4 stage whose compute
// hook performs every Stockham sweep of each pencil except the last — the
// trivial-twiddle radix-4 stage (m=1, s=n/4) — and lets the store leg fold
// that stage into the scatter. The destination must match the full FFT of
// every pencil, for both signs, several block granularities (nq = Blocks/4
// of 1, 2 and 4).
func TestStoreFoldMatchesFullTransform(t *testing.T) {
	const n, units, iters = 64, 4, 3
	for _, sign := range []int{kernels.Forward, kernels.Inverse} {
		tw1 := kernels.NewStageTwiddles(64, 4, sign)
		tw2 := kernels.NewStageTwiddles(16, 4, sign)
		for _, blocks := range []int{4, 8, 16} {
			bl := n / blocks
			rng := rand.New(rand.NewSource(int64(17*blocks + sign)))
			src := make([]complex128, iters*units*n)
			for i := range src {
				src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			dst := make([]complex128, len(src))
			rot := Rotation{Blocks: blocks, BlockLen: bl, JStride: bl,
				Map: func(g, j int) int { return g*n + j*bl }}
			sg := sign
			stages := []Stage{{
				Name: "fold", Iters: iters, Units: units, UnitLen: n,
				Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
				Compute: func(b *Buffers, ar *kernels.Arena, _ []complex128, _ int) {
					tmp := ar.Complex(n)
					for u := 0; u < units; u++ {
						p := b.C[u*n : (u+1)*n]
						kernels.Radix4Step(tmp, p, 16, 1, sg, tw1)
						kernels.Radix4Step(p, tmp, 4, 4, sg, tw2)
					}
				},
				StoreRadix: 4, StoreSign: sg,
				Rot: rot,
			}}
			if err := runOnce(2, nil, stages, nil); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < iters*units; p++ {
				want := kernels.NaiveDFT(src[p*n:(p+1)*n], sign)
				got := dst[p*n : (p+1)*n]
				scale := 1.0
				for i := range want {
					if a := math.Hypot(real(want[i]), imag(want[i])); a > scale {
						scale = a
					}
				}
				for i := range want {
					if d := want[i] - got[i]; math.Hypot(real(d), imag(d)) > 1e-9*scale {
						t.Fatalf("sign=%d blocks=%d pencil=%d elem=%d: got %v want %v",
							sign, blocks, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCachedFoldMatchesUnfoldedGraph: a pencil graph whose fold stages store
// with regular (cached) stores — the fused fold-scatter kernel's cached twin
// where the build has it, the scratch fold elsewhere — agrees bit for bit
// with the same graph built under Ablation.NoFold, which runs the trailing
// butterfly in the compute leg. 512² folds both stages; 96×80 folds its
// columns, whose chain [3 8 4] ends in radix-4 (its rows are ten 8-element
// blocks, which do not split in four); 24×40 ([3 8] and [5 8]) must not
// fold at all.
func TestCachedFoldMatchesUnfoldedGraph(t *testing.T) {
	for _, c := range []struct{ n, m, folds int }{{512, 512, 2}, {96, 80, 1}, {24, 40, 0}} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		src := cvec.Random(rng, c.n*c.m)
		run := func(disableFold bool, sign int) []complex128 {
			restore := SetAblation(Ablation{NoFold: disableFold, Stores: StoreRegular})
			g, err := Pencils{Pkg: "test", Dims: []int{c.n, c.m},
				Plans: []*fft1d.Plan{fft1d.NewPlan(c.n), fft1d.NewPlan(c.m)},
				Mid:   []Array{{C: make([]complex128, c.n*c.m)}}}.Build()
			restore()
			if err != nil {
				t.Fatal(err)
			}
			folds := 0
			for i := range g.stages {
				if g.stages[i].NonTemporal {
					t.Fatalf("%d×%d: stage %d streams under StoreRegular", c.n, c.m, i)
				}
				if g.stages[i].StoreRadix == 4 {
					folds++
				}
			}
			if want := map[bool]int{false: c.folds, true: 0}[disableFold]; folds != want {
				t.Fatalf("%d×%d NoFold=%v: %d fold stages, want %d", c.n, c.m, disableFold, folds, want)
			}
			r, err := NewRunner(RunnerConfig{Pkg: "test", Lanes: 2}, g)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dst := make([]complex128, len(src))
			if err := r.Run(0, Call{In: Endpoint{C: src}, Out: Endpoint{C: dst}, Sign: sign}); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		for _, sign := range []int{kernels.Forward, kernels.Inverse} {
			got, want := run(false, sign), run(true, sign)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d×%d sign=%d elem %d: folded store %v, unfolded graph %v", c.n, c.m, sign, i, got[i], want[i])
				}
			}
		}
	}
}

// lineAligned returns an n-element slice starting on a 64-byte line.
func lineAligned(n int) []complex128 {
	buf := make([]complex128, n+4)
	skip := (4 - int(uintptr(unsafe.Pointer(&buf[0]))/16%4)) % 4
	return buf[skip : skip+n : skip+n]
}

// specials are operands whose sums and products are not ordinary roundings:
// signed zeros, denormals, infinities and NaNs with distinct payloads (one
// signalling), so a scaled store that swaps, reorders or fuses an operation
// of x *= complex(s, 0) shows up as a different bit pattern.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1.1e-308,
	math.Inf(1), math.Inf(-1), math.MaxFloat64,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000abc),
	math.Float64frombits(0xfff8000000000777),
}

func specialVec(r *rand.Rand, n int) []complex128 {
	pick := func() float64 {
		if r.Intn(3) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(pick(), pick())
	}
	return x
}

// A fold stage's StoreScale is, bit for bit, the unscaled fold store followed
// by fft1d.Scale over what it wrote, and touches nothing else — cached and
// streaming, through the fused kernels and through the scratch fold (odd
// block lengths, and every case under -tags purego), into destinations on
// and off the line grid (the streaming kernel declines the latter), for data
// and scales that are ordinary, signed zeros, denormals, infinities and NaNs.
func TestFoldStoreScaleMatchesFoldThenScale(t *testing.T) {
	const units, iters, blocks = 4, 2, 8
	total := units * iters
	scales := []float64{math.Copysign(0, -1), 1.0 / 4096, -3, 5e-324, 1.3e-310,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000042)}
	sentinel := complex(math.Float64frombits(0x7ff8deadbeef0001), -1)
	r := rand.New(rand.NewSource(25))
	for _, nt := range []bool{false, true} {
		for _, bl := range []int{1, 2, 4, 8} {
			for _, off := range []int{0, 1, 2} {
				unitLen := blocks * bl
				src := specialVec(r, total*unitLen)
				store := func(scale float64) []complex128 {
					buf := lineAligned(off + len(src) + off + 1) // sentinels on both sides
					for i := range buf {
						buf[i] = sentinel
					}
					st := Stage{
						Name: "fold", Iters: iters, Units: units, UnitLen: unitLen,
						Src: Endpoint{C: src}, Dst: Endpoint{C: buf[off : off+len(src)]},
						Compute:     func(*Buffers, *kernels.Arena, []complex128, int) {},
						NonTemporal: nt, StoreRadix: 4, StoreSign: kernels.Inverse, StoreScale: scale,
						Rot: Rotation{Blocks: blocks, BlockLen: bl, JStride: total * bl,
							Map: func(g, j int) int { return (j*total + g) * bl }},
					}
					if err := runOnce(2, nil, []Stage{st}, nil); err != nil {
						t.Fatal(err)
					}
					return buf
				}
				plain := store(0)
				for _, scale := range scales {
					want := append([]complex128(nil), plain...)
					if scale != 0 { // a zero of either sign means no scale
						fft1d.Scale(want[off:off+len(src)], scale)
					}
					// A NaN scale meets NaN data with NaNs on both sides of
					// a multiply, and which payload Go keeps then depends on
					// the operand order the compiler chose at each call site
					// of fft1d.Scale (it differs under -race), so there only
					// NaN-ness is held; every other value is held bitwise.
					same := func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b) ||
							math.IsNaN(scale) && math.IsNaN(a) && math.IsNaN(b)
					}
					for i, g := range store(scale) {
						if !same(real(g), real(want[i])) || !same(imag(g), imag(want[i])) {
							t.Fatalf("streaming=%v μ=%d off=%d scale=%v: element %d = %v, fold-then-Scale %v",
								nt, bl, off, scale, i, g, want[i])
						}
					}
				}
			}
		}
	}
}

// TestStoreFoldValidation: the executor must reject fold stages with shapes
// the store leg cannot fold.
func TestStoreFoldValidation(t *testing.T) {
	mkStage := func() Stage {
		return Stage{
			Name: "fold", Iters: 1, Units: 1, UnitLen: 8,
			Src: Endpoint{C: make([]complex128, 8)}, Dst: Endpoint{C: make([]complex128, 8)},
			Compute:    func(*Buffers, *kernels.Arena, []complex128, int) {},
			StoreRadix: 4,
			Rot:        Rotation{Blocks: 4, BlockLen: 2, JStride: 2, Map: func(g, j int) int { return g*8 + j*2 }},
		}
	}
	cases := []struct {
		name string
		mut  func(s *Stage)
	}{
		{"radix 8 unsupported", func(s *Stage) { s.StoreRadix = 8 }},
		{"blocks not multiple of 4", func(s *Stage) { s.Rot.Blocks, s.Rot.BlockLen = 2, 4 }},
		{"staging store", func(s *Stage) { s.StoreFromStaging = true }},
		{"rotation not affine in j", func(s *Stage) { s.Rot.JStride = 0 }},
	}
	for _, c := range cases {
		s := mkStage()
		c.mut(&s)
		if err := runOnce(1, nil, []Stage{s}, nil); err == nil {
			t.Errorf("%s: invalid fold stage accepted", c.name)
		}
	}
	// The base shape itself must be accepted.
	s := mkStage()
	if err := runOnce(1, nil, []Stage{s}, nil); err != nil {
		t.Errorf("valid fold stage rejected: %v", err)
	}
}

// TestStreamingStoresPartialLinesMatchOracle: a NonTemporal stage — plain or
// store-folded — whose blocks are not whole 64-byte lines on line boundaries
// (32-byte blocks, or whole-line blocks starting mid-line) must land exactly
// the bytes the generic oracle computes: the streaming kernels decline those
// patterns and the cached scatter runs. Whole-line patterns are in the table
// too, so the streaming path proper is held to the same oracle. Under
// -tags purego every case takes the cached path.
func TestStreamingStoresPartialLinesMatchOracle(t *testing.T) {
	const units, iters, blocks = 4, 2, 8
	total := units * iters
	for _, bl := range []int{2, 4, 8} {
		for _, off := range []int{0, 2} { // 2 elements = a 32-byte, mid-line start
			for _, fold := range []bool{false, true} {
				unitLen := blocks * bl
				rng := rand.New(rand.NewSource(int64(bl*10 + off)))
				src := make([]complex128, total*unitLen)
				for i := range src {
					src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				// Oracle: the (optionally folded) units, block-transposed.
				want := make([]complex128, off+len(src))
				for g := 0; g < total; g++ {
					unit := src[g*unitLen : (g+1)*unitLen]
					if fold {
						q := unitLen / 4
						folded := make([]complex128, unitLen)
						for leg := 0; leg < 4; leg++ {
							kernels.Radix4FoldLegGeneric(folded[leg*q:(leg+1)*q],
								unit[:q], unit[q:2*q], unit[2*q:3*q], unit[3*q:], leg, kernels.Forward)
						}
						unit = folded
					}
					for j := 0; j < blocks; j++ {
						copy(want[off+(j*total+g)*bl:], unit[j*bl:(j+1)*bl])
					}
				}
				dst := make([]complex128, off+len(src))
				st := Stage{
					Name: "nt", Iters: iters, Units: units, UnitLen: unitLen,
					Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
					Compute:     func(*Buffers, *kernels.Arena, []complex128, int) {},
					NonTemporal: true,
					Rot: Rotation{Blocks: blocks, BlockLen: bl, JStride: total * bl,
						Map: func(g, j int) int { return off + (j*total+g)*bl }},
				}
				if fold {
					st.StoreRadix, st.StoreSign = 4, kernels.Forward
				}
				if err := runOnce(2, nil, []Stage{st}, nil); err != nil {
					t.Fatal(err)
				}
				if i := cvec.FirstBitDiff(dst, want); i >= 0 {
					t.Fatalf("bl=%d off=%d fold=%v: dst[%d] = %v, want %v", bl, off, fold, i, dst[i], want[i])
				}
			}
		}
	}
}
