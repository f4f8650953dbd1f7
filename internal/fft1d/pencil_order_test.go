package fft1d

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

// withL1d runs f with pencilMajor sized against an L1d of the given bytes.
func withL1d(bytes int, f func()) {
	defer func(old int) { l1dBytes = old }(l1dBytes)
	l1dBytes = bytes
	f()
}

// A batch computed pencil by pencil is, bit for bit, the batch computed one
// stage sweep at a time: at 4, 8, 16 and 32 KiB pencils, for odd and even
// stage counts, and for the store-fold prefix as well as the whole chain.
func TestPencilOrderMatchesSweepOrder(t *testing.T) {
	const pencils = 5
	for _, c := range []struct{ n, mu, radix int }{
		{256, 1, 16},  // 4 KiB: [16 16]
		{512, 1, 16},  // 8 KiB: [8 16 4], prefix [8 16]
		{128, 8, 16},  // 16 KiB: [8 4 4], prefix [8 4]
		{1024, 1, 16}, // 16 KiB: [16 16 4]
		{64, 32, 16},  // 32 KiB: [16 4], prefix [16]
		{2048, 1, 16}, // 32 KiB: [8 16 4 4], prefix [8 16 4]
		{512, 2, 8},   // 16 KiB: [8 4 4 4], prefix [8 4 4]
	} {
		p := NewPlanRadix(c.n, c.radix)
		stride := c.n * c.mu
		x := cvec.Random(rand.New(rand.NewSource(int64(stride))), pencils*stride)
		for _, prefix := range []bool{false, true} {
			if prefix && p.FoldRadix() == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%dKiB/n%d/mu%d/radices%v/prefix=%v", stride*16>>10, c.n, c.mu, strings.TrimPrefix(p.Kind(), "stockham"), prefix), func(t *testing.T) {
				for _, sign := range []int{Forward, Inverse} {
					run := func(l1d int, wantPencilMajor bool) []complex128 {
						y := append([]complex128(nil), x...)
						withL1d(l1d, func() {
							if got := pencilMajor(pencils, stride); got != wantPencilMajor {
								t.Fatalf("pencilMajor with a %d-byte L1d = %v", l1d, got)
							}
							ar := kernels.NewArena(0, 0)
							if prefix {
								p.BatchLanesPrefixArena(y, y, pencils, c.mu, sign, ar)
							} else {
								p.BatchLanesArena(y, y, pencils, c.mu, sign, ar)
							}
						})
						return y
					}
					sweep, byPencil := run(1<<30, false), run(0, true)
					if i := cvec.FirstBitDiff(byPencil, sweep); i >= 0 {
						t.Fatalf("sign %d: element %d: pencil order %v, sweep order %v", sign, i, byPencil[i], sweep[i])
					}
				}
			})
		}
	}
}

// A batch read from a separate source is, bit for bit, the same batch copied
// into place and transformed there, and leaves its source untouched: in both
// loop orders, for odd and even stage counts and the store-fold prefix, and
// through generic radix-3 and Bluestein stages.
func TestBatchFromSourceMatchesInPlace(t *testing.T) {
	const pencils = 3
	for _, c := range []struct{ n, mu int }{
		{512, 1}, // [8 16 4]: an odd chain, an even prefix
		{64, 8},  // [16 4]: an even chain, a one-stage prefix
		{256, 8}, // [16 16]: no prefix
		{96, 8},  // [3 8 4]: a generic stage first
		{97, 4},  // Bluestein over lanes
		{97, 1},  // Bluestein, one lane
	} {
		p := NewPlan(c.n)
		stride := c.n * c.mu
		src := cvec.Random(rand.New(rand.NewSource(int64(stride))), pencils*stride)
		keep := append([]complex128(nil), src...)
		for _, prefix := range []bool{false, true} {
			if prefix && p.FoldRadix() == 0 {
				continue
			}
			for _, l1d := range []int{1 << 30, 0} {
				for _, sign := range []int{Forward, Inverse} {
					run := func(x, in []complex128) {
						ar := kernels.NewArena(0, 0)
						if prefix {
							p.BatchLanesPrefixArena(x, in, pencils, c.mu, sign, ar)
						} else {
							p.BatchLanesArena(x, in, pencils, c.mu, sign, ar)
						}
					}
					var inPlace, outOfPlace []complex128
					withL1d(l1d, func() {
						inPlace = append([]complex128(nil), src...)
						run(inPlace, inPlace)
						outOfPlace = make([]complex128, len(src))
						run(outOfPlace, src)
					})
					if i := cvec.FirstBitDiff(outOfPlace, inPlace); i >= 0 {
						t.Fatalf("n=%d μ=%d prefix=%v l1d=%d sign=%d: element %d from source %v, in place %v",
							c.n, c.mu, prefix, l1d, sign, i, outOfPlace[i], inPlace[i])
					}
					if i := cvec.FirstBitDiff(src, keep); i >= 0 {
						t.Fatalf("n=%d μ=%d prefix=%v: source element %d overwritten", c.n, c.mu, prefix, i)
					}
				}
			}
		}
	}
}

// The derived rule: a batch goes pencil by pencil when a pencil is at least
// a quarter of the L1d — on a 48 KiB L1d the 256-point 8-lane pencils of
// 256³ (32 KiB) and the 512-point 8-lane columns of 512² (64 KiB) do, the
// 512² rows (8 KiB) and 256³ x-pencils (4 KiB) do not — and a single pencil
// never does (there is no loop to reorder).
func TestPencilMajorRule(t *testing.T) {
	withL1d(48<<10, func() {
		for _, c := range []struct {
			pencils, stride int
			want            bool
		}{
			{4, 2048, true}, {2, 4096, true}, {8, 1024, true}, {8, 768, true},
			{16, 512, false}, {32, 256, false}, {1, 4096, false},
		} {
			if got := pencilMajor(c.pencils, c.stride); got != c.want {
				t.Errorf("pencilMajor(%d pencils of %d KiB) = %v, want %v", c.pencils, c.stride*16>>10, got, c.want)
			}
		}
	})
}
