package fft2d

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// The fused stage-graph schedule and the drain-between-stages baseline must
// be interchangeable: every compute sees identical block contents in both,
// so the outputs agree exactly, and both match the reference — across odd
// sizes, μ values and worker mixes.
func TestFusionEquivalence(t *testing.T) {
	cases := []struct{ n, m, mu int }{
		{7, 9, 1},  // odd everywhere forces μ=1
		{5, 15, 3}, // odd with odd μ
		{9, 25, 5},
		{6, 20, 4},
		{16, 16, 4},
	}
	workers := [][2]int{{1, 1}, {2, 2}, {1, 3}}
	for _, c := range cases {
		for _, w := range workers {
			ref, _ := NewPlan(c.n, c.m, core.Config{Strategy: core.Reference})
			x := randVec(int64(c.n*c.m+c.mu), c.n*c.m)
			want := make([]complex128, len(x))
			if err := ref.Transform(want, x, fft1d.Forward); err != nil {
				t.Fatal(err)
			}
			var outs [2][]complex128
			for i, unfused := range []bool{false, true} {
				restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
				p, err := NewPlan(c.n, c.m, core.Config{
					Strategy: core.DoubleBuf, Mu: c.mu, BufferElems: 64,
					DataWorkers: w[0], ComputeWorkers: w[1],
				})
				restore()
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = make([]complex128, len(x))
				if err := p.Transform(outs[i], x, fft1d.Forward); err != nil {
					t.Fatal(err)
				}
				if d := cvec.MaxDiff(cvec.Vec(outs[i]), cvec.Vec(want)); d > tol*float64(c.n*c.m) {
					t.Errorf("%dx%d μ=%d p=%v unfused=%v: diff vs reference %g",
						c.n, c.m, c.mu, w, unfused, d)
				}
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("%dx%d μ=%d p=%v: fused and unfused outputs differ at %d: %v vs %v",
						c.n, c.m, c.mu, w, i, outs[0][i], outs[1][i])
				}
			}
		}
	}
}

// Fusion shortens the schedule: an S-stage graph saves S-1 steps over the
// drain-between-stages baseline, visible in the executor stats.
func TestFusionStatsSteps(t *testing.T) {
	steps := func(unfused bool) int {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
		p, err := NewPlan(16, 16, core.Config{Strategy: core.DoubleBuf, Mu: 4, BufferElems: 64})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(7, 16*16)
		y := make([]complex128, len(x))
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Stages != 2 || st.Steps == 0 {
			t.Fatalf("unexpected stats %+v", st)
		}
		return st.Steps
	}
	if f, u := steps(false), steps(true); u-f != 1 { // S-1 = 1 for 2 stages
		t.Fatalf("fused %d steps, unfused %d, want a saving of exactly 1", f, u)
	}
}
