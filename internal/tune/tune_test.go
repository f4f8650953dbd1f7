package tune

import (
	"strings"
	"testing"
)

func smallSpace() Space {
	return Space{
		Buffers: []int{256, 512, 1024, 2048},
		Mus:     []int{4},
	}
}

func TestTune3DFindsABest(t *testing.T) {
	best, all, err := Tune([]int{16, 16, 16}, smallSpace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("tried %d candidates, want 4", len(all))
	}
	if best.Seconds <= 0 {
		t.Fatal("best has no time")
	}
	for _, r := range all {
		if r.Seconds < best.Seconds {
			t.Fatal("best is not the minimum")
		}
	}
	if best.Mu != 4 {
		t.Fatalf("unexpected μ %d", best.Mu)
	}
}

func TestTune2DFindsABest(t *testing.T) {
	best, all, err := Tune([]int{32, 32}, smallSpace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || best.Seconds <= 0 {
		t.Fatal("no results")
	}
}

func TestTuneSkipsInfeasibleMu(t *testing.T) {
	space := smallSpace()
	space.Mus = []int{4, 5} // 5 ∤ 16
	_, all, err := Tune([]int{16, 16, 16}, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.Mu == 5 {
			t.Fatal("infeasible μ was measured")
		}
	}
	// Nothing feasible at all:
	space.Mus = []int{5}
	if _, _, err := Tune([]int{16, 16, 16}, space, 1); err == nil {
		t.Fatal("expected error when no candidate is feasible")
	}
}

func TestDefaultSpace(t *testing.T) {
	s := DefaultSpace()
	if len(s.Buffers) < 2 || len(s.Mus) < 2 {
		t.Fatalf("space too small: %+v", s)
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{BufferElems: 64, Mu: 4}
	if !strings.Contains(c.String(), "b=64") || !strings.Contains(c.String(), "μ=4") {
		t.Fatalf("String = %q", c.String())
	}
}
