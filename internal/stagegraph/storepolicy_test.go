package stagegraph

import (
	"testing"

	"repro/internal/layout"
)

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
		if err := runOnce(Config{Lanes: 2}, stages, nil); err != nil {
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
