package layout

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func randFloats(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

func TestPackPairsMatchesGeneric(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 33, 100} {
		src := randFloats(int64(n)+1, 2*n)
		got := make([]complex128, n)
		want := make([]complex128, n)
		PackPairs(got, src, n)
		PackPairsGeneric(want, src, n)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("PackPairs n=%d element %d: got %v want %v", n, j, got[j], want[j])
			}
		}
	}
}

func TestUnpackPairsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 8, 17, 64} {
		src := randFloats(int64(n)+7, 2*n)
		packed := make([]complex128, n)
		PackPairs(packed, src, n)
		got := make([]float64, 2*n)
		UnpackPairs(got, packed, n)
		want := make([]float64, 2*n)
		UnpackPairsGeneric(want, packed, n)
		for i := range got {
			if got[i] != src[i] || got[i] != want[i] {
				t.Fatalf("UnpackPairs n=%d float %d: got %v want %v (src %v)", n, i, got[i], want[i], src[i])
			}
		}
	}
}

// ScatterBlocksPairs — the generated cached scatter for even block lengths
// on amd64, the unrolled Go paths otherwise — writes the reference's floats
// bit for bit and nothing else, at fixed shapes and at random ones with
// strides up to 64 KiB.
func TestScatterBlocksPairsMatchesGeneric(t *testing.T) {
	type shape struct{ blocks, blockLen, off, stride int }
	cases := []shape{{1, 1, 0, 1}, {3, 4, 2, 11}, {5, 8, 0, 9}, {4, 3, 1, 7}, {2, 5, 3, 6}, {6, 2, 1, 2}}
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 60; i++ {
		bl := rng.Intn(10) + 1
		cases = append(cases, shape{rng.Intn(16) + 1, bl, rng.Intn(8), bl + rng.Intn(4096-bl+1)})
	}
	for _, c := range cases {
		src := randVec(int64(c.blocks*c.blockLen), c.blocks*c.blockLen)
		size := 2 * (c.off + (c.blocks-1)*c.stride + c.blockLen + 4)
		want := make([]float64, size)
		for i := range want {
			want[i] = math.NaN()
		}
		ScatterBlocksPairsGeneric(want, src, c.blocks, c.blockLen, c.off, c.stride)
		for _, tier := range []struct {
			name string
			run  func(dst []float64)
		}{
			{"ScatterBlocksPairs", func(dst []float64) { ScatterBlocksPairs(dst, src, c.blocks, c.blockLen, c.off, c.stride) }},
			{"Go", func(dst []float64) { scatterBlocksPairsGo(dst, src, c.blocks, c.blockLen, c.off, c.stride) }},
		} {
			got := make([]float64, size)
			for i := range got {
				got[i] = math.NaN()
			}
			tier.run(got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %+v float %d: got %v want %v", tier.name, c, i, got[i], want[i])
				}
			}
		}
	}
}

// A scatter whose last block ends exactly at the end of dst writes it; one
// that would pass the end panics — in either tier, complex or pair-packed —
// and nothing lands past the end. (dst's capacity ends with it: the Go
// tier's slice expressions are bounded by capacity.)
func TestScatterBlocksStayInBounds(t *testing.T) {
	const blocks, blockLen, stride = 3, 4, 10
	extent := (blocks-1)*stride + blockLen
	src := randVec(9, blocks*blockLen)
	for _, short := range []int{0, 1} {
		n := extent - short
		backing := make([]complex128, n+8)
		for i := range backing {
			backing[i] = complex(7, 7)
		}
		pairs := unsafe.Slice((*float64)(unsafe.Pointer(&backing[0])), 2*len(backing))
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"ScatterBlocks", func() { ScatterBlocks(backing[:n:n], src, blocks, blockLen, 0, stride) }},
			{"ScatterBlocksPairs", func() { ScatterBlocksPairs(pairs[:2*n:2*n], src, blocks, blockLen, 0, stride) }},
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.run()
				return false
			}()
			if panicked != (short > 0) {
				t.Errorf("%s %d elements short: panicked = %v", c.name, short, panicked)
			}
			for i := n; i < len(backing); i++ {
				if backing[i] != complex(7, 7) {
					t.Fatalf("%s %d elements short: wrote element %d past the end %d", c.name, short, i, n)
				}
			}
		}
	}
}
