package fft3d

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// The fused stage-graph schedule and the drain-between-stages baseline must
// be interchangeable on the 3D transform — including the interleaved
// array-reuse flow (src→dst, dst→work, work→dst), where fusion is only
// legal because stage 3's first store lands strictly after stage 2's last
// load of dst. Exercised across odd sizes, μ values and worker mixes;
// outputs must agree exactly and match the reference.
func TestFusionEquivalence(t *testing.T) {
	cases := []struct{ k, n, m, mu int }{
		{3, 5, 7, 1}, // odd everywhere forces μ=1
		{5, 3, 9, 3},
		{4, 6, 10, 2},
		{8, 8, 16, 4},
	}
	workers := [][2]int{{1, 1}, {2, 2}, {2, 3}}
	for _, c := range cases {
		for _, w := range workers {
			x := randVec(int64(c.k*100+c.n*10+c.m), c.k*c.n*c.m)
			want := refDFT3D(c.k, c.n, c.m, x, fft1d.Forward)
			var outs [2][]complex128
			for i, unfused := range []bool{false, true} {
				restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
				p, err := NewPlan(c.k, c.n, c.m, core.Config{
					Mu: c.mu, BufferElems: 64,
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
				if d := cvec.MaxDiff(cvec.Vec(outs[i]), cvec.Vec(want)); d > tol*float64(len(x)) {
					t.Errorf("%dx%dx%d μ=%d p=%v unfused=%v: diff vs reference %g",
						c.k, c.n, c.m, c.mu, w, unfused, d)
				}
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("%dx%dx%d μ=%d p=%v: fused/unfused outputs differ at %d",
						c.k, c.n, c.m, c.mu, w, i)
				}
			}
		}
	}
}

// Stats attribute the whole fused transform: 3 stages, one schedule, and a
// step saving of exactly S-1 = 2 over the unfused baseline.
func TestFusionStatsSteps(t *testing.T) {
	steps := func(unfused bool) int {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
		p, err := NewPlan(8, 8, 16, core.Config{Mu: 4, BufferElems: 128})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(5, p.Len())
		y := make([]complex128, len(x))
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Stages != 3 || st.Steps == 0 {
			t.Fatalf("unexpected stats %+v", st)
		}
		return st.Steps
	}
	if f, u := steps(false), steps(true); u-f != 2 {
		t.Fatalf("fused %d steps, unfused %d, want a saving of exactly 2", f, u)
	}
}
