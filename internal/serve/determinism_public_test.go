package serve_test

// External test package: the public repro package imports serve, so only
// from out here can one test hold a served result next to the public ones.

import (
	"context"
	"testing"

	"repro"
	"repro/internal/fft1d"
	"repro/internal/serve"
)

// TestServedEqualsPublicEqualsDirect: at every size — in cache, at the L2
// boundary (2¹⁶ / 2¹⁷) and past it, power of two or not — a served rank-1
// request, repro.NewFFT1D, a SharedPlans handle and the bare fft1d plan
// return the same bits, forward and inverse.
func TestServedEqualsPublicEqualsDirect(t *testing.T) {
	s := serve.New(serve.Options{Executors: 1})
	defer s.Shutdown(context.Background())
	pool := repro.NewSharedPlans(2)
	defer pool.Close()

	for _, n := range []int{4096, 1 << 16, 1 << 17, 3 << 16} {
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(float64((i*7)%13)-6, float64((i*3)%11)-5)
		}
		public, err := repro.NewFFT1D(n)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := pool.FFT1D(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, inverse := range []bool{false, true} {
			want := make([]complex128, n)
			if inverse {
				fft1d.NewPlan(n).Transform(want, src, fft1d.Inverse)
				fft1d.Scale(want, 1/float64(n))
			} else {
				fft1d.NewPlan(n).Transform(want, src, fft1d.Forward)
			}
			run := map[string]func(dst []complex128) error{
				"served": func(dst []complex128) error {
					return s.Do(context.Background(), serve.Request{Rank: 1, Dims: [3]int{n}, Inverse: inverse, Src: src, Dst: dst})
				},
				"public": func(dst []complex128) error {
					if inverse {
						return public.Inverse(dst, src)
					}
					return public.Forward(dst, src)
				},
				"shared": func(dst []complex128) error {
					if inverse {
						return shared.Inverse(dst, src)
					}
					return shared.Forward(dst, src)
				},
			}
			for name, f := range run {
				got := make([]complex128, n)
				if err := f(got); err != nil {
					t.Fatalf("n=%d %s: %v", n, name, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("n=%d inverse=%v: %s differs from fft1d at bin %d", n, inverse, name, i)
						break
					}
				}
			}
		}
		public.Close()
		shared.Close()
	}
}
