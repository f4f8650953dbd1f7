package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// The complex plan's shared test helpers; the rank-free tables its
// non-differential checks run are in coretest (oracle_test.go).

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

func requireSameBits(t *testing.T, got, want []complex128) {
	t.Helper()
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Fatalf("element %d: got %v, want %v (bitwise)", i, got[i], want[i])
	}
}

// mustPlan builds the complex plan of dims under cfg, closed with the test.
func mustPlan(t *testing.T, cfg Config, dims ...int) *Plan {
	t.Helper()
	p, err := NewPlan(cfg, false, dims...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// A sign other than ±1 is refused: the compute kernels, the AVX2 fold and
// the generic fold each read such a sign as a different direction, so the
// output would depend on the kernel tier.
func TestTransformRefusesSignOutsideUnit(t *testing.T) {
	for _, dims := range [][]int{{64, 64}, {8, 8, 8}} {
		p := mustPlan(t, Config{}, dims...)
		for _, sign := range []int{0, 2} {
			if err := p.Transform(make([]complex128, p.Len()), randVec(1, p.Len()), sign); err == nil {
				t.Errorf("%v: sign %d accepted", dims, sign)
			}
		}
	}
}

func benchPlan(b *testing.B, opts Config, dims ...int) {
	p, err := NewPlan(opts, false, dims...)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
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

func Benchmark2DDoubleBuf(b *testing.B) {
	benchPlan(b, Config{Lanes: 1, BufferElems: 1 << 14}, 512, 512)
}

// BenchmarkBufferSweep and BenchmarkLanes sweep 64³ over the buffer size
// and over the lane count.
func BenchmarkBufferSweep(b *testing.B) {
	for _, be := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("b%d", be), func(b *testing.B) { benchPlan(b, Config{BufferElems: be}, 64, 64, 64) })
	}
}

func BenchmarkLanes(b *testing.B) {
	for _, l := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("lanes%d", l), func(b *testing.B) {
			benchPlan(b, Config{Lanes: l, BufferElems: 1 << 14}, 64, 64, 64)
		})
	}
}
