package core

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/machine"
)

// Observability reports where NewPlan's time went: two build lines, each
// present in the JSON snapshot and non-negative, which run one after
// another and so sum to no more than the wall time around the constructor.
func TestObservabilityBuildLines(t *testing.T) {
	for _, c := range []struct {
		real bool
		dims []int
	}{
		{false, []int{32, 64}},
		{false, []int{16, 16, 32}},
		{true, []int{64}},
		{true, []int{8, 16, 32}},
	} {
		t0 := time.Now()
		p, err := NewPlan(ForMachine(machine.All[1]), c.real, c.dims...)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		raw, err := json.Marshal(p.Observability())
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Build map[string]float64 `json:"build"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, line := range []string{"sub_plans_ns", "graph_ns"} {
			v, ok := snap.Build[line]
			if !ok || v < 0 {
				t.Errorf("real=%v %v: build line %s = %v (present %v)", c.real, c.dims, line, v, ok)
			}
			sum += v
		}
		if snap.Build["graph_ns"] == 0 {
			t.Errorf("real=%v %v: graph build and runner start took 0 ns", c.real, c.dims)
		}
		if sum > float64(wall) {
			t.Errorf("real=%v %v: build lines sum to %v ns, NewPlan took %v", c.real, c.dims, sum, wall)
		}
	}
}
