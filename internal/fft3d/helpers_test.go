package fft3d

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
)

const tol = 1e-9

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

// naiveDFT applies kernels.NaiveDFT along every axis of the row-major
// array x with extents dims (slowest first): a reference that shares no
// code with spl.
func naiveDFT(x []complex128, sign int, dims ...int) []complex128 {
	y := append([]complex128(nil), x...)
	stride := len(x)
	for _, d := range dims {
		stride /= d
		line := make([]complex128, d)
		for base := range y {
			if base/stride%d != 0 {
				continue
			}
			for i := range line {
				line[i] = y[base+i*stride]
			}
			for i, v := range kernels.NaiveDFT(line, sign) {
				y[base+i*stride] = v
			}
		}
	}
	return y
}

func requireSameBits(t *testing.T, got, want []complex128) {
	t.Helper()
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Fatalf("element %d: got %v, want %v (bitwise)", i, got[i], want[i])
	}
}

func benchPlan(b *testing.B, opts Options, k, n, m int) {
	p, err := NewPlan(k, n, m, opts)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(1, p.Len())
	y := make([]complex128, p.Len())
	b.SetBytes(int64(p.Len() * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}
