package stagegraph

import (
	"strings"
	"testing"

	"repro/internal/layout"
)

// One lane's streaming stages fold their stores where the kernels' sink
// takes the last pass: a chain ending in a radix-8 or radix-16 stage (256,
// 24 = [3 8]; not 16 = [4 4] or 64 = [16 4]), blocks of whole lines (μ a
// multiple of 4) and a block inside the budget. Two lanes, NoFold,
// CopyLoads (no soft DMA at all) and real graphs keep every store leg.
func TestFoldStoreScope(t *testing.T) {
	if !layout.NonTemporalAvailable() {
		t.Skip("no streaming-store tier: no graph folds its stores")
	}
	for _, c := range []struct {
		name string
		ab   Ablation
		p    Pencils
		want []bool // by stage
	}{
		{"rows of 256", Ablation{}, Pencils{Dims: []int{16, 256}}, []bool{true, false}},
		{"cols of 256", Ablation{}, Pencils{Dims: []int{256, 16}}, []bool{false, true}},
		{"3D, z of 24", Ablation{}, Pencils{Dims: []int{24, 16, 64}}, []bool{false, false, true}},
		{"two lanes", Ablation{}, Pencils{Dims: []int{256, 256}, Lanes: 2}, []bool{false, false}},
		{"NoFold", Ablation{NoFold: true}, Pencils{Dims: []int{256, 256}}, []bool{false, false}},
		{"CopyLoads", Ablation{CopyLoads: true}, Pencils{Dims: []int{256, 256}}, []bool{false, false}},
		{"half-line blocks", Ablation{}, Pencils{Dims: []int{256, 256}, Mu: 2}, []bool{false, false}},
		{"a unit past the budget", Ablation{}, Pencils{Dims: []int{16, 256}, BufferElems: 128}, []bool{false, false}},
		{"real 2D", Ablation{}, Pencils{Dims: []int{16, 256}, Real: &RealEnd{Pitch: 129,
			Untangle: func([]complex128, int) {}}}, []bool{false, false}},
	} {
		ab := c.ab
		ab.Stores = StoreNonTemporal
		restore := SetAblation(ab)
		p := c.p
		p.Pkg = "test"
		for _, d := range p.Dims {
			p.Plans = append(p.Plans, Plan1D(d))
		}
		for range p.Dims[1:] {
			p.Mid = append(p.Mid, Array{C: make([]complex128, 64*64*64)})
		}
		g, err := p.Build()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		desc := Describe(g.stages)
		for i := range g.stages {
			if got := g.stages[i].FoldStore; got != c.want[i] {
				t.Errorf("%s: stage %d folds its store %v, want %v:\n%s", c.name, i, got, c.want[i], desc)
			}
		}
		want := 0
		for _, f := range c.want {
			if f {
				want++
			}
		}
		if n := strings.Count(desc, "store folded into the last sweep"); n != want {
			t.Errorf("%s: %d stages described as folding their stores, want %d:\n%s", c.name, n, want, desc)
		}
	}
}
