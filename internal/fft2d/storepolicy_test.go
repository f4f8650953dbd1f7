package fft2d

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/stagegraph"
)

// Regression for the μ default: plan-time μ must come from the machine
// model (largest of 8/4/2 dividing m), not a hardcoded 4 — μ=8 measures
// ~0.95 of STREAM peak on the blocked transpose against ~0.65 for μ=4.
func TestDefaultMuFollowsMachineModel(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{256, 256, 8},
		{64, 64, 8},
		{16, 12, 4},
		{8, 6, 2},
		{4, 7, 1},
	}
	for _, c := range cases {
		if got := machine.PreferredMu(c.m); got != c.want {
			t.Fatalf("PreferredMu(%d) = %d; want %d", c.m, got, c.want)
		}
		p, err := NewPlan(c.n, c.m, core.Config{BufferElems: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if p.Mu() != c.want {
			t.Errorf("%dx%d default μ = %d; want %d", c.n, c.m, p.Mu(), c.want)
		}
		p.Close()
	}
	// Explicit Mu still wins over the model.
	p, err := NewPlan(64, 64, core.Config{Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Mu() != 4 {
		t.Fatalf("explicit μ=4 overridden to %d", p.Mu())
	}
}

func TestStorePolicyWiring(t *testing.T) {
	nt := 0
	if layout.NonTemporalAvailable() {
		nt = 2 // both DoubleBuf stages
	}
	// Forced streaming stores flag every stage; forced regular flags none;
	// Auto stays regular for a cache-resident 64×64.
	for _, c := range []struct {
		policy stagegraph.StorePolicy
		want   int
	}{
		{stagegraph.StoreNonTemporal, nt},
		{stagegraph.StoreRegular, 0},
		{stagegraph.StoreAuto, 0},
	} {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: c.policy})
		p, err := NewPlan(64, 64, core.Config{})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.NonTemporalStages(); got != c.want {
			t.Errorf("policy %v: %d NT stages; want %d", c.policy, got, c.want)
		}
		p.Close()
	}
}

// Forced streaming stores must not change results: run a transform with
// StoreNonTemporal against the spl oracle.
func TestNonTemporalTransformMatchesReference(t *testing.T) {
	const n, m = 64, 64
	restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal})
	p, err := NewPlan(n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(99, n*m)
	want := refDFT2D(n, m, x, fft1d.Forward)
	got := make([]complex128, len(x))
	if err := p.Transform(got, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Errorf("NT transform: diff %g", d)
	}
	p.Close()
}
