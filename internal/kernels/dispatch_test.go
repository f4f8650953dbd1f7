package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The dispatched entry points must agree with the pure-Go oracles for
// every shape the planner can produce: odd and even block counts m
// (pairs tail coverage), strides s hitting the vector body, the 128-bit
// tail and the scalar tail, unaligned slice offsets, and both transform
// signs. Tolerance is a few ulps: the codelets use FMA, the oracles
// round intermediates.

const eqTol = 1e-12

func maxDiffC(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		if v := cmplxAbs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func scaleFor(x []complex128) float64 {
	s := 1.0
	for _, v := range x {
		if a := cmplxAbs(v); a > s {
			s = a
		}
	}
	return s
}

// shapes exercises every addressing mode: s==1 (pairs incl. odd-m tail),
// s==2 (one vector iteration), s==3 (vector + 128-bit tail), larger odd
// and even strides, and m==1..m odd.
var shapes = []struct{ m, s int }{
	{1, 1}, {2, 1}, {3, 1}, {8, 1}, {9, 1}, {64, 1}, {65, 1},
	{1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 7}, {1, 8},
	{3, 3}, {4, 4}, {5, 6}, {7, 5}, {16, 8}, {13, 11}, {32, 12},
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestRadixStepsMatchGeneric(t *testing.T) {
	if Tier() == "generic" {
		t.Skip("no accelerated tier on this build; dispatch is the oracle")
	}
	r := rand.New(rand.NewSource(7))
	for _, radix := range []int{4, 8, 16} {
		for _, sign := range []int{Forward, Inverse} {
			for _, sh := range shapes {
				n := radix * sh.m * sh.s
				tw := NewStageTwiddles(radix*sh.m, radix, sign)
				// Offset the slices so the codelets see unaligned bases.
				for _, off := range []int{0, 1} {
					src := randComplex(r, n+off)[off:]
					got := make([]complex128, n+off)[off:]
					want := make([]complex128, n)
					switch radix {
					case 4:
						Radix4Step(got, src, sh.m, sh.s, sign, tw)
						Radix4StepGeneric(want, src, sh.m, sh.s, sign, tw)
					case 8:
						Radix8Step(got, src, sh.m, sh.s, sign, tw)
						Radix8StepGeneric(want, src, sh.m, sh.s, sign, tw)
					case 16:
						Radix16Step(got, src, sh.m, sh.s, sign, tw)
						Radix16StepGeneric(want, src, sh.m, sh.s, sign, tw)
					}
					if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
						t.Fatalf("radix=%d sign=%d m=%d s=%d off=%d: max diff %g", radix, sign, sh.m, sh.s, off, d)
					}
				}
			}
		}
	}
}

// TestBatchStepsMatchGeneric drives the batched wrappers (which the
// stage-graph executor calls) across odd pencil counts and strides so
// the per-pencil dispatch is exercised through the same entry points the
// transforms use.
func TestBatchStepsMatchGeneric(t *testing.T) {
	if Tier() == "generic" {
		t.Skip("no accelerated tier on this build; dispatch is the oracle")
	}
	r := rand.New(rand.NewSource(13))
	for _, pencils := range []int{1, 3, 7} {
		for _, sh := range []struct{ m, s int }{{4, 1}, {3, 2}, {2, 5}} {
			n := 8 * sh.m * sh.s
			stride := n + 5 // non-contiguous pencils
			tw := NewStageTwiddles(8*sh.m, 8, Forward)
			src := randComplex(r, pencils*stride)
			got := make([]complex128, pencils*stride)
			want := make([]complex128, pencils*stride)
			BatchRadix8Step(got, src, pencils, stride, sh.m, sh.s, Forward, tw)
			SetForceGeneric(true)
			BatchRadix8Step(want, src, pencils, stride, sh.m, sh.s, Forward, tw)
			SetForceGeneric(false)
			if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
				t.Fatalf("batch pencils=%d m=%d s=%d: max diff %g", pencils, sh.m, sh.s, d)
			}
		}
	}
}

// TestTierAgainstNaiveDFT runs a full multi-stage Stockham pipeline with
// the dispatched kernels against the O(n^2) DFT, closing the loop on
// stage composition (twiddle layouts, s progression) rather than single
// stages.
func TestTierAgainstNaiveDFT(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		x := make([]complex128, n)
		r := rand.New(rand.NewSource(int64(n)))
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		want := NaiveDFT(x, Forward)
		cur := append([]complex128(nil), x...)
		tmp := make([]complex128, n)
		s := 1
		m := n / 4
		for m >= 1 {
			tw := NewStageTwiddles(4*m, 4, Forward)
			Radix4Step(tmp, cur, m, s, Forward, tw)
			cur, tmp = tmp, cur
			s *= 4
			m /= 4
		}
		if d := maxDiffC(cur, want); d > 1e-9*scaleFor(want) {
			t.Fatalf("n=%d: pipeline vs naive DFT max diff %g", n, d)
		}
	}
}

// The fold-leg codelet must agree with the pure-Go oracle on every leg,
// both signs, and lengths hitting the vector body, the XMM tail, and the
// single-element case.
func TestFoldLegMatchesGeneric(t *testing.T) {
	if Tier() == "generic" {
		t.Skip("no accelerated tier on this build")
	}
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 4, 7, 8, 33, 64} {
		z0, z1 := randComplex(r, n), randComplex(r, n)
		z2, z3 := randComplex(r, n), randComplex(r, n)
		for _, sign := range []int{Forward, Inverse} {
			for leg := 0; leg < 4; leg++ {
				want := make([]complex128, n)
				got := make([]complex128, n)
				Radix4FoldLegGeneric(want, z0, z1, z2, z3, leg, sign)
				Radix4FoldLeg(got, z0, z1, z2, z3, leg, sign)
				if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
					t.Fatalf("n=%d leg=%d sign=%d: max diff %g", n, leg, sign, d)
				}
			}
		}
	}
}

// The fused fold+NT-scatter kernel must place exactly the blocks the
// scratch fold + scatter pair would, and must decline (writing nothing)
// every pattern that is not whole 64-byte lines on line boundaries.
func TestFoldScatterNTMatchesScratchPath(t *testing.T) {
	if Tier() == "generic" {
		t.Skip("no accelerated tier on this build")
	}
	r := rand.New(rand.NewSource(11))
	// lineDst returns n elements starting `off` elements past a 64-byte
	// line boundary.
	lineDst := func(n, off int) []complex128 {
		raw := make([]complex128, n+8)
		for a := 0; a < 4; a++ {
			if uintptr(unsafe.Pointer(&raw[a]))%64 == 0 {
				return raw[a+off : a+off+n]
			}
		}
		t.Fatal("no 64-byte-aligned offset in complex128 slice")
		return nil
	}
	for _, c := range []struct{ blocks, bl, d0, stride int }{
		{1, 4, 0, 0}, {4, 4, 0, 16}, {3, 4, 4, 32}, {8, 4, 8, 12}, {5, 8, 0, 40},
	} {
		n := c.blocks * c.bl
		z0, z1 := randComplex(r, n), randComplex(r, n)
		z2, z3 := randComplex(r, n), randComplex(r, n)
		extent := c.d0 + (c.blocks-1)*c.stride + c.bl
		for _, sign := range []int{Forward, Inverse} {
			for leg := 0; leg < 4; leg++ {
				got := lineDst(extent, 0)
				if !Radix4FoldScatterNT(got, z0, z1, z2, z3, c.blocks, c.bl, c.d0, c.stride, leg, sign, 0) {
					t.Fatalf("blocks=%d bl=%d: fused kernel declined a whole-line pattern", c.blocks, c.bl)
				}
				folded := make([]complex128, n)
				Radix4FoldLegGeneric(folded, z0, z1, z2, z3, leg, sign)
				want := make([]complex128, extent)
				for i := 0; i < c.blocks; i++ {
					copy(want[c.d0+i*c.stride:], folded[i*c.bl:(i+1)*c.bl])
				}
				if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
					t.Fatalf("blocks=%d bl=%d leg=%d sign=%d: max diff %g", c.blocks, c.bl, leg, sign, d)
				}
			}
		}
	}
	// Anything short of whole lines must be declined untouched: the caller's
	// scratch fold + cached scatter handles it.
	for _, c := range []struct {
		name                       string
		blocks, bl, d0, stride, at int
	}{
		{"odd block length", 1, 3, 0, 0, 0},
		{"32-byte blocks", 8, 2, 0, 8, 0},
		{"mid-line start offset", 4, 4, 2, 16, 0},
		{"mid-line base", 4, 4, 0, 16, 2},
		{"stride off the line grid", 4, 4, 0, 18, 0},
	} {
		n := c.blocks * c.bl
		z := randComplex(r, n)
		dst := lineDst(c.d0+(c.blocks-1)*c.stride+c.bl, c.at)
		if Radix4FoldScatterNT(dst, z, z, z, z, c.blocks, c.bl, c.d0, c.stride, 0, Forward, 0) {
			t.Fatalf("fused kernel accepted %s", c.name)
		}
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("%s: declined call wrote dst[%d]", c.name, i)
			}
		}
	}
}

// The cached fused fold+scatter kernel must place, bit for bit, the blocks
// Radix4FoldLegGeneric + a block scatter would and touch nothing between
// them — on every pattern with an even block length, including the ones the
// streaming twin declines (32-byte blocks, offsets and strides off the line
// grid, an unaligned base). What it declines it leaves unwritten; without
// the codelet tier (purego) that is everything.
func TestFoldScatterMatchesGenericOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sentinel := complex(math.Pi, -math.E)
	fill := func(n int) []complex128 {
		d := make([]complex128, n)
		for i := range d {
			d[i] = sentinel
		}
		return d
	}
	for _, c := range []struct{ blocks, bl, d0, stride, at int }{
		{1, 2, 0, 0, 0}, {8, 2, 0, 8, 0}, {7, 2, 3, 2, 1}, {4, 4, 0, 16, 0}, {4, 4, 2, 16, 0},
		{4, 4, 0, 18, 0}, {3, 4, 5, 7, 3}, {5, 8, 0, 40, 0}, {6, 8, 1, 9, 1},
	} {
		n := c.blocks * c.bl
		z0, z1 := randComplex(r, n), randComplex(r, n)
		z2, z3 := randComplex(r, n), randComplex(r, n)
		extent := c.d0 + (c.blocks-1)*c.stride + c.bl
		for _, sign := range []int{Forward, Inverse} {
			for leg := 0; leg < 4; leg++ {
				got := fill(extent + c.at)[c.at:] // c.at shifts the base off any line boundary
				ok := Radix4FoldScatter(got, z0, z1, z2, z3, c.blocks, c.bl, c.d0, c.stride, leg, sign, 0)
				want := fill(extent)
				if ok {
					folded := make([]complex128, n)
					Radix4FoldLegGeneric(folded, z0, z1, z2, z3, leg, sign)
					for i := 0; i < c.blocks; i++ {
						copy(want[c.d0+i*c.stride:], folded[i*c.bl:(i+1)*c.bl])
					}
				}
				if ok != (Tier() != "generic") {
					t.Fatalf("%+v: fused kernel returned %v on the %s tier", c, ok, Tier())
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%+v leg=%d sign=%d: dst[%d] = %v, want %v", c, leg, sign, i, got[i], want[i])
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name                        string
		blocks, bl, d0, stride, len int
	}{
		{"odd block length", 2, 3, 0, 4, 8},
		{"last block past the end", 4, 4, 0, 16, 51},
		{"negative offset", 2, 4, -4, 8, 16},
	} {
		z := randComplex(r, c.blocks*c.bl)
		dst := fill(c.len)
		if Radix4FoldScatter(dst, z, z, z, z, c.blocks, c.bl, c.d0, c.stride, 0, Forward, 0) {
			t.Fatalf("fused kernel accepted %s", c.name)
		}
		for i, v := range dst {
			if v != sentinel {
				t.Fatalf("%s: declined call wrote dst[%d]", c.name, i)
			}
		}
	}
}

func ExampleTier() {
	fmt.Println(len(Tier()) > 0)
	// Output: true
}
