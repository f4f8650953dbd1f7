//go:build amd64 && !purego

package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

func skipWithoutAVX512(t *testing.T) {
	t.Helper()
	if !hostAVX512 {
		t.Skipf("CPU lacks AVX-512F/DQ (%s)", cpufeat.Summary())
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// guarded returns an n-element window at an odd element offset — off the
// 32- and 64-byte boundaries of its allocation — inside a buffer whose other
// elements hold a sentinel, plus a check that the sentinels survived.
func guarded(n int) (win []complex128, intact func() bool) {
	const guard = 9
	sentinel := complex(math.Float64frombits(0x7ff8dead0000beef), -12345.5)
	buf := make([]complex128, guard+n+guard)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[guard : guard+n : guard+n], func() bool {
		for i := 0; i < guard; i++ {
			if !sameBits(buf[i], sentinel) || !sameBits(buf[guard+n+i], sentinel) {
				return false
			}
		}
		return true
	}
}

func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// asmStep runs the radix-8 or radix-16 assembly kernel of the given width
// (256 or 512) directly — the pairs form when s == 1 — bypassing dispatch, so
// the AVX2 kernels stay covered on hosts where dispatch prefers 512-bit.
func asmStep(radix, width int, dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	jim := jimFor(sign)
	if radix == 16 {
		tp := tw.ptrs16()
		switch {
		case width == 512 && s == 1:
			radix16PairsAVX512(&dst[0], &src[0], m, jim, &tp)
		case width == 512:
			radix16AVX512(&dst[0], &src[0], m, s, jim, &tp)
		case s == 1:
			radix16PairsAVX2(&dst[0], &src[0], m, jim, &tp)
		default:
			radix16AVX2(&dst[0], &src[0], m, s, jim, &tp)
		}
		return
	}
	tp := twiddlePtrs{
		w1: &tw.W1[0], w2: &tw.W2[0], w3: &tw.W3[0], w4: &tw.W4[0],
		w5: &tw.W5[0], w6: &tw.W6[0], w7: &tw.W7[0],
	}
	switch {
	case width == 512 && s == 1:
		radix8PairsAVX512(&dst[0], &src[0], m, jim, &tp)
	case width == 512:
		radix8AVX512(&dst[0], &src[0], m, s, jim, &tp)
	case s == 1:
		radix8PairsAVX2(&dst[0], &src[0], m, jim, &tp)
	default:
		radix8AVX2(&dst[0], &src[0], m, s, jim, &tp)
	}
}

// generic is the pure-Go oracle of radix 8 or 16.
func generic(radix int) func(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	if radix == 16 {
		return Radix16StepGeneric
	}
	return Radix8StepGeneric
}

// wideMatchesAVX2 holds the 512-bit kernel of a radix to the AVX2 one, bit
// for bit, over (m, s) shapes that meet its contract (whole ZMM words: s == 1
// with m % 4 == 0, or s % 4 == 0), both signs, off-line destinations with
// guard sentinels — and the AVX2 kernel itself to the generic oracle, so the
// agreement is not vacuous.
func wideMatchesAVX2(t *testing.T, radix int, shapes [][2]int, r *rand.Rand) {
	t.Helper()
	for _, sh := range shapes {
		m, s := sh[0], sh[1]
		if s == 1 && m%4 != 0 || s != 1 && s%4 != 0 {
			t.Fatalf("radix-%d shape m=%d s=%d is outside the 512-bit contract", radix, m, s)
		}
		for _, sign := range []int{Forward, Inverse} {
			n := radix * m * s
			tw := NewStageTwiddles(radix*m, radix, sign)
			src, _ := guarded(n)
			copy(src, randComplex(r, n))
			want, wantIntact := guarded(n)
			got, gotIntact := guarded(n)
			asmStep(radix, 256, want, src, m, s, sign, tw)
			asmStep(radix, 512, got, src, m, s, sign, tw)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("radix-%d m=%d s=%d sign=%d: element %d differs: 512-bit %v, AVX2 %v", radix, m, s, sign, i, got[i], want[i])
			}
			if !gotIntact() || !wantIntact() {
				t.Errorf("radix-%d m=%d s=%d sign=%d: a kernel wrote outside its destination", radix, m, s, sign)
			}
			ref := make([]complex128, n)
			generic(radix)(ref, src, m, s, sign, tw)
			if d := maxDiffC(want, ref); d > eqTol*scaleFor(ref) {
				t.Errorf("radix-%d m=%d s=%d sign=%d: AVX2 kernel off the generic oracle by %g", radix, m, s, sign, d)
			}
		}
	}
}

// The 512-bit radix-16 kernels run the AVX2 codelet's operation sequence in
// every lane, so their output must be the AVX2 kernels' bit for bit — the
// property that lets Tier() keep saying "avx2" and the golden file keep one
// digest.
func TestRadix16AVX512MatchesAVX2Bitwise(t *testing.T) {
	skipWithoutAVX512(t)
	var shapes [][2]int
	for _, m := range []int{1, 2, 3, 4, 8, 16, 256} {
		for _, s := range []int{1, 4, 8, 12, 16, 128} {
			if s != 1 || m%4 == 0 {
				shapes = append(shapes, [2]int{m, s})
			}
		}
	}
	wideMatchesAVX2(t, 16, shapes, rand.New(rand.NewSource(512)))
}

// The same for the radix-8 kernels, whose t_k the 512-bit tier parks in
// Z16–Z19 instead of the frame: random (m, s) in the contract plus the
// stages of 512² (rows m = 64, s = 1; columns m = 64, s = μ = 8).
func TestRadix8AVX512MatchesAVX2Bitwise(t *testing.T) {
	skipWithoutAVX512(t)
	r := rand.New(rand.NewSource(8))
	shapes := [][2]int{{64, 1}, {64, 8}, {1, 4}, {4, 1}}
	for len(shapes) < 48 {
		m, s := 1+r.Intn(96), 1
		if r.Intn(3) > 0 {
			s = 4 * (1 + r.Intn(24))
		} else if m%4 != 0 {
			continue
		}
		shapes = append(shapes, [2]int{m, s})
	}
	wideMatchesAVX2(t, 8, shapes, r)
}

// dispatchWidths is the width table both dispatched steps follow: 512 for
// shapes that fill whole ZMM words, 256 for the rest (s == 1 with m % 4 != 0,
// and s % 4 != 0).
var dispatchWidths = []struct{ m, s, want int }{
	{4, 1, 512}, {256, 1, 512}, {1, 4, 512}, {3, 12, 512}, {16, 16, 512}, {64, 8, 512},
	{1, 1, 256}, {2, 1, 256}, {3, 1, 256}, {6, 1, 256}, // s == 1, m % 4 != 0
	{4, 2, 256}, {4, 3, 256}, {1, 6, 256}, {8, 13, 256}, // s % 4 != 0
}

// dispatchFollowsWidth checks the width table, the pure-Go tier when forced,
// and that whichever kernel step dispatches, its bits are the AVX2 kernel's.
func dispatchFollowsWidth(t *testing.T, radix int, step func(dst, src []complex128, m, s, sign int, tw StageTwiddles)) {
	t.Helper()
	defer SetForceGeneric(false)
	for _, c := range dispatchWidths {
		if got := stepWidth(c.m, c.s); got != c.want {
			t.Errorf("stepWidth(m=%d, s=%d) = %d, want %d", c.m, c.s, got, c.want)
		}
		SetForceGeneric(true)
		if got := stepWidth(c.m, c.s); got != 0 {
			t.Errorf("forced generic: stepWidth(m=%d, s=%d) = %d, want 0", c.m, c.s, got)
		}
		SetForceGeneric(false)

		n := radix * c.m * c.s
		tw := NewStageTwiddles(radix*c.m, radix, Forward)
		src := randComplex(rand.New(rand.NewSource(int64(n))), n)
		got, want := make([]complex128, n), make([]complex128, n)
		step(got, src, c.m, c.s, Forward, tw)
		asmStep(radix, 256, want, src, c.m, c.s, Forward, tw)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Errorf("radix-%d m=%d s=%d: dispatched output differs from the AVX2 kernel at element %d", radix, c.m, c.s, i)
		}
	}
}

// Radix16Step takes the 512-bit kernels only for shapes that fill whole ZMM
// words, the AVX2 kernels for every other shape, and the pure-Go tier when
// forced — and whichever it takes, the bits are the AVX2 kernels'.
func TestRadix16DispatchWidth(t *testing.T) {
	skipWithoutAVX512(t)
	dispatchFollowsWidth(t, 16, Radix16Step)
}

// Radix8Step picks its width by the same rule, per call.
func TestRadix8DispatchWidth(t *testing.T) {
	skipWithoutAVX512(t)
	dispatchFollowsWidth(t, 8, Radix8Step)
}
