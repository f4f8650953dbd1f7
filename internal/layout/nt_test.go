package layout

import (
	"math/rand"
	"testing"
)

// The NT scatters must be drop-in replacements for the regular ones on
// every pattern — aligned fast path and misaligned fallback alike.

func TestScatterBlocksNTMatchesRegular(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := []struct{ blocks, blockLen, dstOff, dstStride int }{
		{4, 8, 0, 32},   // aligned, whole 32-byte stores (NT path)
		{8, 2, 0, 16},   // 32-byte blocks
		{3, 64, 64, 80}, // big blocks, offset start
		{4, 8, 1, 32},   // misaligned offset -> fallback
		{4, 7, 0, 32},   // odd block length -> fallback
		{5, 8, 4, 9},    // odd stride -> fallback
		{1, 1, 0, 1},    // single element
	}
	for _, c := range cases {
		need := c.dstOff + (c.blocks-1)*c.dstStride + c.blockLen
		src := make([]complex128, c.blocks*c.blockLen)
		for i := range src {
			src[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		want := make([]complex128, need+3)
		got := make([]complex128, need+3)
		ScatterBlocks(want, src, c.blocks, c.blockLen, c.dstOff, c.dstStride)
		ScatterBlocksNT(got, src, c.blocks, c.blockLen, c.dstOff, c.dstStride)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %+v: mismatch at %d: got %v want %v", c, i, got[i], want[i])
			}
		}
	}
}

// Out-of-bounds patterns must panic exactly like the regular scatters
// (via the fallback), never write wild memory.
func TestScatterBlocksNTOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds scatter")
		}
	}()
	dst := make([]complex128, 16)
	src := make([]complex128, 64)
	ScatterBlocksNT(dst, src, 4, 8, 0, 32) // extent 104 > 16
}

func BenchmarkScatterBlocksNT(b *testing.B) {
	const blocks, blockLen = 512, 8
	src := make([]complex128, blocks*blockLen)
	dst := make([]complex128, blocks*blockLen*2)
	b.SetBytes(int64(len(src) * 32))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScatterBlocksNT(dst, src, blocks, blockLen, 0, blockLen*2)
	}
}

// Patterns short of whole 64-byte lines — 32-byte blocks (μ=2) or
// whole-line blocks that start mid-line — take the cached scatter (ntOK declines them; see
// TestNTOKWholeLinesOnly on amd64) and must stay bitwise-equal to the
// *Generic rotation oracles. Runs under -tags purego too, where the NT
// entry points are plain aliases.
func TestScatterNTPartialLinesMatchGenericOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const k, n, mb = 4, 6, 8
	for _, mu := range []int{2, 4, 8} {
		total := k * n * mb * mu
		src := make([]complex128, total)
		for i := range src {
			src[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		// shift moves every block start off the line grid (mid-line start)
		// without changing the block pattern.
		for _, shift := range []int{0, 1, 2} {
			want := make([]complex128, total+shift)
			got := make([]complex128, total+shift)
			Rotate3DBlockedGeneric(want[shift:], src, k, n, mb, mu)
			row := mb * mu
			for g := 0; g < k*n; g++ {
				ScatterBlocksNT(got, src[g*row:(g+1)*row], mb, mu, shift+g*mu, k*n*mu)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mu=%d shift=%d: mismatch at %d", mu, shift, i)
				}
			}
		}
	}
}
