package fft1d

import (
	"math"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

// FuzzRoundTrip feeds arbitrary sizes (1 … 65535) and seeds through the
// planner and checks the inverse-of-forward identity, Parseval, the direct
// DFT (kernels.NaiveDFT) up to n = 512, and that no input ever panics the
// plan machinery. Seeds cover every kind of stage chain; `go test` runs them
// as regular cases, `go test -fuzz=FuzzRoundTrip` (part of `make fuzzsmoke`)
// explores.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint16(1), int64(0))
	f.Add(uint16(2), int64(1))
	f.Add(uint16(8), int64(2))       // one generic stage
	f.Add(uint16(1024), int64(3))    // [16 16 4]
	f.Add(uint16(96), int64(4))      // [3 8 4]
	f.Add(uint16(127), int64(5))     // one Bluestein stage
	f.Add(uint16(2310), int64(6))    // 2·3·5·7·11: [3 5 7 11 2]
	f.Add(uint16(4099), int64(7))    // prime > 2^12
	f.Add(uint16(3<<10), int64(8))   // [3 16 16 4]
	f.Add(uint16(5<<12), int64(9))   // [5 16 16 16]
	f.Add(uint16(2*4093), int64(10)) // [4093 2]
	f.Add(uint16(11*13), int64(11))  // two Bluestein stages
	f.Fuzz(func(t *testing.T, rawN uint16, seed int64) {
		n := max(int(rawN), 1)
		p := NewPlan(n)
		rng := newDeterministicRand(seed)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng()*2-1, rng()*2-1)
		}
		y := make([]complex128, n)
		z := make([]complex128, n)
		p.Transform(y, x, Forward)
		if n <= 512 {
			if d := cvec.MaxDiff(cvec.Vec(y), cvec.Vec(kernels.NaiveDFT(x, Forward))); d > 1e-9*float64(n) {
				t.Fatalf("n=%d (%s): off the direct DFT by %g", n, p.Kind(), d)
			}
		}
		p.Transform(z, y, Inverse)
		Scale(z, 1/float64(n))
		if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-7 {
			t.Fatalf("n=%d: round trip diff %g", n, d)
		}
		ex := cvec.Vec(x).L2()
		ey := cvec.Vec(y).L2()
		if ex > 0 {
			ratio := ey / (ex * math.Sqrt(float64(n)))
			if ratio < 0.999 || ratio > 1.001 {
				t.Fatalf("n=%d: Parseval ratio %v", n, ratio)
			}
		}
	})
}

// newDeterministicRand is a tiny xorshift so the fuzz body has no
// dependency on math/rand's global state.
func newDeterministicRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 0x9e3779b97f4a7c15
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%(1<<53)) / (1 << 53)
	}
}
