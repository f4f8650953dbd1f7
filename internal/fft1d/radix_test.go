package fft1d

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

// Radix-capped plans must agree with each other (and the default plan) to
// rounding on every power-of-two size, in every entry point the pipelines
// use: plain Transform and batched pencils.
func TestRadixPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{16, 64, 128, 1024, 4096} {
		x := cvec.Random(rng, n)
		for _, sign := range []int{Forward, Inverse} {
			want := make([]complex128, n)
			NewPlanRadix(n, 2).Transform(want, x, sign)
			for _, radix := range []int{4, 8, 16} {
				got := make([]complex128, n)
				NewPlanRadix(n, radix).Transform(got, x, sign)
				if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
					t.Errorf("n=%d sign=%d radix=%d vs radix=2: max diff %g", n, sign, radix, d)
				}
			}
		}
	}
}

func TestRadixPlansAgreeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, count = 256, 6
	x := cvec.Random(rng, n*count)
	ar := kernels.NewArena(0, 0)
	want := append([]complex128(nil), x...)
	NewPlanRadix(n, 4).BatchArena(want, count, Forward, ar)
	got := append([]complex128(nil), x...)
	NewPlanRadix(n, 8).BatchArena(got, count, Forward, ar)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
		t.Fatalf("batched radix-8 vs radix-4: max diff %g", d)
	}
}

// The plan cache must key on radix for sizes with a power-of-two part and
// collapse it otherwise.
func TestPlanCacheRadixKeying(t *testing.T) {
	if NewPlanRadix(1024, 8) == NewPlanRadix(1024, 4) {
		t.Error("plans with different radix caps share a cache entry")
	}
	if NewPlanRadix(1024, 16) != NewPlan(1024) {
		t.Error("NewPlan(1024) should be the cached radix-16 plan")
	}
	// 120 = 15·8: the cap applies to the power-of-two part.
	if a, b := NewPlanRadix(120, 2), NewPlanRadix(120, 8); a == b || a.Kind() != "stockham[3 5 2 2 2]" || b.Kind() != "stockham[3 5 8]" {
		t.Errorf("120 under caps 2 and 8: %s, %s (shared: %v)", a.Kind(), b.Kind(), a == b)
	}
	if NewPlanRadix(105, 2) != NewPlanRadix(105, 8) || NewPlanRadix(6, 2) != NewPlanRadix(6, 16) {
		t.Error("odd sizes and n ≤ 8 should share one entry regardless of radix")
	}
}

// pow2Radices is the planner's pass schedule: one leading radix-8 stage
// when log₂(n) is odd (replacing the radix-2 pass radix-4 alone would
// need), radix-4 for the rest.
func TestPow2RadicesSchedule(t *testing.T) {
	cases := []struct {
		n, maxRadix int
		want        []int
	}{
		{512, 8, []int{8, 4, 4, 4}},
		{1024, 8, []int{4, 4, 4, 4, 4}},
		{2048, 8, []int{8, 4, 4, 4, 4}},
		{64, 4, []int{4, 4, 4}},
		{32, 4, []int{2, 4, 4}},
		{16, 2, []int{2, 2, 2, 2}},
		// maxRadix 16: fused pairs up front, trailing radix-4 reserved
		// so the stage-graph store leg can fold the last sweep.
		{16, 16, []int{4, 4}},
		{32, 16, []int{8, 4}},
		{64, 16, []int{16, 4}},
		{128, 16, []int{8, 4, 4}},
		// k ≡ 0 (mod 4) packs pure radix-16 chains (no fold stage): the
		// fold's 4× leg re-read costs more than the sweep it would save
		// once the sweep count is already ⌈k/4⌉.
		{256, 16, []int{16, 16}},
		{512, 16, []int{8, 16, 4}},
		{1024, 16, []int{16, 16, 4}},
		{2048, 16, []int{8, 16, 4, 4}},
		{4096, 16, []int{16, 16, 16}},
	}
	for _, c := range cases {
		got := pow2Radices(c.n, c.maxRadix)
		if len(got) != len(c.want) {
			t.Errorf("pow2Radices(%d, %d) = %v, want %v", c.n, c.maxRadix, got, c.want)
			continue
		}
		prod := 1
		for i := range got {
			prod *= got[i]
			if got[i] != c.want[i] {
				t.Errorf("pow2Radices(%d, %d) = %v, want %v", c.n, c.maxRadix, got, c.want)
				break
			}
		}
		if prod != c.n {
			t.Errorf("pow2Radices(%d, %d) radices multiply to %d", c.n, c.maxRadix, prod)
		}
	}
}
