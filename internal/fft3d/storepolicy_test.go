package fft3d

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// Regression for the μ default: the 64³ plan must pick μ=8 from the
// machine model, not the old hardcoded 4.
func TestDefaultMuFollowsMachineModel(t *testing.T) {
	cases := []struct{ k, n, m, want int }{
		{64, 64, 64, 8},
		{4, 8, 12, 4},
		{2, 4, 6, 2},
		{2, 2, 7, 1},
	}
	for _, c := range cases {
		p, err := NewPlan(c.k, c.n, c.m, core.Config{BufferElems: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if p.Mu() != c.want {
			t.Errorf("%dx%dx%d default μ = %d; want %d", c.k, c.n, c.m, p.Mu(), c.want)
		}
		p.Close()
	}
	p, err := NewPlan(8, 8, 8, core.Config{Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Mu() != 4 {
		t.Fatalf("explicit μ=4 overridden to %d", p.Mu())
	}
}

// Forced streaming stores must flag every stage, stay correct, and
// forced regular must flag none.
func TestStorePolicyWiringAndCorrectness(t *testing.T) {
	nt := 0
	if layout.NonTemporalAvailable() {
		nt = 3 // all three DoubleBuf stages
	}
	ntStages := func(policy stagegraph.StorePolicy) int {
		defer stagegraph.SetAblation(stagegraph.Ablation{Stores: policy})()
		p, err := NewPlan(16, 16, 16, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if policy == stagegraph.StoreNonTemporal {
			doubleBufCase(t, 16, 16, 16, core.Config{DataWorkers: 2,
				ComputeWorkers: 2}, fft1d.Forward)
			doubleBufCase(t, 8, 16, 32, core.Config{}, fft1d.Inverse)
		}
		return p.NonTemporalStages()
	}
	if got := ntStages(stagegraph.StoreNonTemporal); got != nt {
		t.Errorf("forced NT: %d NT stages; want %d", got, nt)
	}
	if got := ntStages(stagegraph.StoreRegular); got != 0 {
		t.Errorf("forced regular: %d NT stages; want 0", got)
	}
}
