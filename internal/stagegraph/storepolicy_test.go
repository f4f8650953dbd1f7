package stagegraph

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
)

func TestStorePolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range []StorePolicy{StoreAuto, StoreRegular, StoreNonTemporal} {
		got, err := ParseStorePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseStorePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseStorePolicy("bogus"); err == nil {
		t.Fatal("ParseStorePolicy(bogus) succeeded")
	}
	if p, err := ParseStorePolicy(""); err != nil || p != StoreAuto {
		t.Fatalf("empty policy = %v, %v; want auto", p, err)
	}
}

func TestStorePolicyDecide(t *testing.T) {
	nt := layout.NonTemporalAvailable()
	const llc = 8 << 20
	cases := []struct {
		policy StorePolicy
		dest   int
		want   bool
	}{
		{StoreRegular, llc * 4, false},
		{StoreNonTemporal, 0, nt},
		{StoreAuto, llc / 4, false}, // fits in cache
		{StoreAuto, llc * 4, nt},    // spills
		{StoreAuto, llc/2 + 1, nt},  // just over the threshold
		{StoreAuto, llc / 2, false}, // exactly at threshold: cached
	}
	for _, c := range cases {
		if got := c.policy.Decide(c.dest, llc); got != c.want {
			t.Errorf("%v.Decide(%d, %d) = %v; want %v", c.policy, c.dest, llc, got, c.want)
		}
	}
	if StoreAuto.Decide(1<<30, 0) {
		t.Error("StoreAuto with unknown LLC must stay regular")
	}
}

func TestApplyStorePolicy(t *testing.T) {
	stages := make([]Stage, 3)
	stages[1].NonTemporal = true
	if changed := ApplyStorePolicy(stages, true); changed != 2 {
		t.Fatalf("ApplyStorePolicy(true) changed %d; want 2", changed)
	}
	for i := range stages {
		if !stages[i].NonTemporal {
			t.Fatalf("stage %d not flipped", i)
		}
	}
	if changed := ApplyStorePolicy(stages, true); changed != 0 {
		t.Fatalf("idempotent apply changed %d; want 0", changed)
	}
	if changed := ApplyStorePolicy(stages, false); changed != 3 {
		t.Fatalf("ApplyStorePolicy(false) changed %d; want 3", changed)
	}
}

func TestReviseStores(t *testing.T) {
	const llc = 8 << 20
	snap := obs.Snapshot{Stages: []obs.StageSnapshot{
		{Name: "rfo-bound", FracPeak: 0.3},
		{Name: "healthy", FracPeak: 0.9},
		{Name: "diverged", FracPeak: 0.9, DataDivergence: 2.0},
	}}
	mk := func() []Stage {
		return []Stage{
			{Name: "rfo-bound"}, {Name: "healthy"}, {Name: "diverged"}, {Name: "unmeasured"},
		}
	}

	if !layout.NonTemporalAvailable() {
		stages := mk()
		stages[0].NonTemporal = true
		if changed := ReviseStores(stages, snap, llc, llc*4); changed != 1 {
			t.Fatalf("without NT tier: changed %d; want 1 (clear)", changed)
		}
		for i := range stages {
			if stages[i].NonTemporal {
				t.Fatalf("without NT tier stage %d left NonTemporal", i)
			}
		}
		return
	}

	// Spilling footprint: the RFO-bound and diverged stages flip to
	// streaming, the healthy measured stage stays cached, and the stage
	// with no telemetry follows the footprint rule.
	stages := mk()
	if changed := ReviseStores(stages, snap, llc, llc*4); changed != 3 {
		t.Fatalf("spilling revise changed %d; want 3", changed)
	}
	wantNT := []bool{true, false, true, true}
	for i, w := range wantNT {
		if stages[i].NonTemporal != w {
			t.Fatalf("spilling revise: stage %q NonTemporal=%v, want %v",
				stages[i].Name, stages[i].NonTemporal, w)
		}
	}
	// Idempotent on a second pass with the same telemetry.
	if changed := ReviseStores(stages, snap, llc, llc*4); changed != 0 {
		t.Fatalf("second revise changed %d; want 0", changed)
	}

	// Cache-resident footprint: everything reverts to cached stores.
	if changed := ReviseStores(stages, snap, llc, llc/4); changed != 3 {
		t.Fatalf("resident revise changed %d; want 3", changed)
	}
	for i := range stages {
		if stages[i].NonTemporal {
			t.Fatalf("resident revise left stage %q streaming", stages[i].Name)
		}
	}
}

// A graph must produce identical output with streaming stores: NT is a
// pure traffic optimisation, never a semantic one.
func TestNonTemporalStoreEquivalence(t *testing.T) {
	const iters, units, unitLen = 4, 4, 8
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%17)+1, float64(i%5)-2)
	}
	run := func(nt bool) []complex128 {
		mids := [][]complex128{make([]complex128, n)}
		dst := make([]complex128, n)
		stages := chainGraph(src, mids, dst, iters, units, unitLen, 3)
		ApplyStorePolicy(stages, nt)
		b := NewBuffers(units*unitLen, false)
		if _, err := Run(Config{DataWorkers: 2, ComputeWorkers: 1, Fused: true}, b, stages); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := run(false)
	got := run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: NT store produced %v, regular %v", i, got[i], want[i])
		}
	}
}
