package layout

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cvec"
)

// Property: the elementwise transpose (TransposeBlocked at μ = 1) is a
// bijection — sorting-free check via double application on a tagged vector.
func TestQuickTransposeBijection(t *testing.T) {
	f := func(rawR, rawC uint8) bool {
		rows := int(rawR)%40 + 1
		cols := int(rawC)%40 + 1
		x := make([]complex128, rows*cols)
		for i := range x {
			x[i] = complex(float64(i), 0) // unique tags
		}
		y := make([]complex128, len(x))
		z := make([]complex128, len(x))
		TransposeBlocked(y, x, rows, cols, 1)
		TransposeBlocked(z, y, cols, rows, 1)
		return cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: three successive rotations restore any cube of μ-blocks.
func TestQuickRotationOrderThree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	f := func(rawK, rawN, rawMB, rawMu uint8) bool {
		k := int(rawK)%8 + 1
		n := int(rawN)%8 + 1
		mb := int(rawMB)%8 + 1
		mu := int(rawMu)%4 + 1
		x := cvec.Random(rng, k*n*mb*mu)
		a := make([]complex128, len(x))
		b := make([]complex128, len(x))
		c := make([]complex128, len(x))
		Rotate3DBlocked(a, x, k, n, mb, mu)
		Rotate3DBlocked(b, a, mb, k, n, mu)
		Rotate3DBlocked(c, b, n, mb, k, mu)
		return cvec.MaxDiff(cvec.Vec(c), cvec.Vec(x)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the blocked rotation equals the elementwise rotation applied to
// a cube whose fastest dimension is pre-grouped into μ-blocks.
func TestQuickBlockedEqualsGroupedElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	f := func(rawK, rawN, rawMB, rawMu uint8) bool {
		k := int(rawK)%5 + 1
		n := int(rawN)%5 + 1
		mb := int(rawMB)%5 + 1
		mu := int(rawMu)%4 + 1
		total := k * n * mb * mu
		x := cvec.Random(rng, total)
		blocked := make([]complex128, total)
		Rotate3DBlocked(blocked, x, k, n, mb, mu)
		// Elementwise rotation of the k×n×mb cube of μ-sized "atoms":
		// emulate by rotating indices and copying blocks.
		want := make([]complex128, total)
		for z := 0; z < k; z++ {
			for y := 0; y < n; y++ {
				for xb := 0; xb < mb; xb++ {
					s := ((z*n+y)*mb + xb) * mu
					d := ((xb*k+z)*n + y) * mu
					copy(want[d:d+mu], x[s:s+mu])
				}
			}
		}
		return cvec.MaxDiff(cvec.Vec(blocked), cvec.Vec(want)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scatter tier — the generated cached kernel (even blockLen
// on amd64), the unrolled μ = 4 / μ = 8 Go paths and the copy loop — is
// bit-identical to a naive per-element store and writes nothing between the
// blocks, across random block counts, odd and even lengths, offsets and
// strides from blockLen up to 64 KiB. An odd blockLen must leave the kernel
// to Go.
func TestQuickScatterBlocksMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	sentinel := complex(math.Pi, -math.E)
	f := func(rawB, rawL, rawOff uint8, rawStride uint16) bool {
		blocks := int(rawB)%17 + 1
		var blockLen int
		switch rawL % 3 {
		case 0:
			blockLen = 4
		case 1:
			blockLen = 8
		default:
			blockLen = int(rawL)%10 + 1 // copy loop in Go, kernel when even
		}
		dstOff := int(rawOff) % 7
		// ≥ blockLen, so blocks never overlap; up to 64 KiB (4096 elements).
		dstStride := blockLen + int(rawStride)%(4096-blockLen+1)
		src := cvec.Random(rng, blocks*blockLen)
		need := dstOff + (blocks-1)*dstStride + blockLen + 3
		want := make([]complex128, need)
		for i := range want {
			want[i] = sentinel
		}
		for j := 0; j < blocks; j++ {
			for v := 0; v < blockLen; v++ {
				want[dstOff+j*dstStride+v] = src[j*blockLen+v]
			}
		}
		fresh := func() []complex128 {
			d := make([]complex128, need)
			for i := range d {
				d[i] = sentinel
			}
			return d
		}
		same := func(tier string, got, want []complex128) bool {
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s blocks=%d len=%d off=%d stride=%d: element %d = %v, want %v",
						tier, blocks, blockLen, dstOff, dstStride, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		got := fresh()
		ScatterBlocks(got, src, blocks, blockLen, dstOff, dstStride)
		if !same("ScatterBlocks", got, want) {
			return false
		}
		got = fresh()
		scatterBlocksGo(got, src, blocks, blockLen, dstOff, dstStride)
		if !same("Go", got, want) {
			return false
		}
		// The kernel alone runs exactly for even lengths on builds with the
		// AVX tier (which NonTemporalAvailable reports), and a declined call
		// writes nothing.
		got = fresh()
		ran := scatterKernel(got, src, blocks, blockLen, dstOff, dstStride)
		if ran != (blockLen%2 == 0 && NonTemporalAvailable()) {
			t.Errorf("kernel ran = %v for blockLen %d", ran, blockLen)
			return false
		}
		if !ran {
			want = fresh()
		}
		return same("kernel", got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: TransposeBlocked (register path for μ ∈ {4, 8}, generic loop
// otherwise) is bit-identical to the tiled reference across odd shapes.
func TestQuickTransposeBlockedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := func(rawR, rawC, rawMu uint8) bool {
		rows := int(rawR)%11 + 1
		cols := int(rawC)%11 + 1
		mus := []int{4, 8, int(rawMu)%5 + 1}
		mu := mus[int(rawMu)%3]
		total := rows * cols * mu
		x := cvec.Random(rng, total)
		got := make([]complex128, total)
		want := make([]complex128, total)
		TransposeBlocked(got, x, rows, cols, mu)
		TransposeBlockedGeneric(want, x, rows, cols, mu)
		return cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rotate3DBlocked is bit-identical to the per-block reference
// implementation across odd cube shapes.
func TestQuickRotate3DBlockedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func(rawK, rawN, rawMB, rawMu uint8) bool {
		k := int(rawK)%6 + 1
		n := int(rawN)%6 + 1
		mb := int(rawMB)%6 + 1
		mus := []int{4, 8, int(rawMu)%5 + 1}
		mu := mus[int(rawMu)%3]
		total := k * n * mb * mu
		x := cvec.Random(rng, total)
		got := make([]complex128, total)
		want := make([]complex128, total)
		Rotate3DBlocked(got, x, k, n, mb, mu)
		Rotate3DBlockedGeneric(want, x, k, n, mb, mu)
		return cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
