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

// The 512-bit radix-16 kernels run the AVX2 codelet's operation sequence in
// every lane, so their output must be the AVX2 kernels' bit for bit — the
// property that lets Tier() keep saying "avx2" and the golden file keep one
// digest. The assembly entry points are called directly, which also keeps
// the AVX2 radix-16 kernels covered on hosts where dispatch prefers 512-bit.
func TestRadix16AVX512MatchesAVX2Bitwise(t *testing.T) {
	skipWithoutAVX512(t)
	r := rand.New(rand.NewSource(512))
	ran := 0
	for _, m := range []int{1, 2, 3, 4, 8, 16, 256} {
		for _, s := range []int{1, 2, 4, 8, 12, 16, 128} {
			pairs := s == 1
			// Each 512-bit kernel's contract: whole ZMM words.
			if pairs && m%4 != 0 || !pairs && s%4 != 0 {
				continue
			}
			for _, sign := range []int{Forward, Inverse} {
				n := 16 * m * s
				tw := NewStageTwiddles(16*m, 16, sign)
				tp := tw.ptrs16()
				src, _ := guarded(n)
				copy(src, randComplex(r, n))
				want, wantIntact := guarded(n)
				got, gotIntact := guarded(n)
				if pairs {
					radix16PairsAVX2(&want[0], &src[0], m, jimFor(sign), &tp)
					radix16PairsAVX512(&got[0], &src[0], m, jimFor(sign), &tp)
				} else {
					radix16AVX2(&want[0], &src[0], m, s, jimFor(sign), &tp)
					radix16AVX512(&got[0], &src[0], m, s, jimFor(sign), &tp)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("m=%d s=%d sign=%d: element %d differs: 512-bit %v, AVX2 %v", m, s, sign, i, got[i], want[i])
				}
				if !gotIntact() || !wantIntact() {
					t.Errorf("m=%d s=%d sign=%d: a kernel wrote outside its destination", m, s, sign)
				}
				// Not vacuous: the AVX2 kernel itself agrees with the oracle.
				ref := make([]complex128, n)
				Radix16StepGeneric(ref, src, m, s, sign, tw)
				if d := maxDiffC(want, ref); d > eqTol*scaleFor(ref) {
					t.Errorf("m=%d s=%d sign=%d: AVX2 kernel off the generic oracle by %g", m, s, sign, d)
				}
				ran++
			}
		}
	}
	if ran == 0 {
		t.Fatal("no shape exercised the 512-bit kernels")
	}
}

// Dispatch takes the 512-bit kernels only for shapes that fill whole ZMM
// words, the AVX2 kernels for every other shape, and the pure-Go tier when
// forced — and whichever it takes, the bits are the AVX2 kernels'.
func TestRadix16DispatchWidth(t *testing.T) {
	skipWithoutAVX512(t)
	defer SetForceGeneric(false)
	for _, c := range []struct{ m, s, want int }{
		{4, 1, 512}, {256, 1, 512}, {1, 4, 512}, {3, 12, 512}, {16, 16, 512},
		{1, 1, 256}, {2, 1, 256}, {3, 1, 256}, {6, 1, 256}, // s == 1, m % 4 != 0
		{4, 2, 256}, {4, 3, 256}, {1, 6, 256}, {8, 13, 256}, // s % 4 != 0
	} {
		if got := radix16Width(c.m, c.s); got != c.want {
			t.Errorf("radix16Width(m=%d, s=%d) = %d, want %d", c.m, c.s, got, c.want)
		}
		SetForceGeneric(true)
		if got := radix16Width(c.m, c.s); got != 0 {
			t.Errorf("forced generic: radix16Width(m=%d, s=%d) = %d, want 0", c.m, c.s, got)
		}
		SetForceGeneric(false)

		n := 16 * c.m * c.s
		tw := NewStageTwiddles(16*c.m, 16, Forward)
		tp := tw.ptrs16()
		src := randComplex(rand.New(rand.NewSource(int64(n))), n)
		got, want := make([]complex128, n), make([]complex128, n)
		Radix16Step(got, src, c.m, c.s, Forward, tw)
		if c.s == 1 {
			radix16PairsAVX2(&want[0], &src[0], c.m, jimFor(Forward), &tp)
		} else {
			radix16AVX2(&want[0], &src[0], c.m, c.s, jimFor(Forward), &tp)
		}
		if i := firstBitDiff(got, want); i >= 0 {
			t.Errorf("m=%d s=%d: dispatched output differs from the AVX2 kernel at element %d", c.m, c.s, i)
		}
	}
}
