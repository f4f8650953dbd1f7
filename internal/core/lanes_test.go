package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// The lane budget closes: a forward's load, compute and store legs, with the
// lanes' stage-barrier waits, account for the wall. On one lane the legs run
// one after another and sum to the wall within 3 %; on two, each lane's
// legs and waits tile the run from its start, so over both lanes they sum
// to twice the wall within 5 %. The shapes are 32 MiB an array — past L2,
// so the legs are long against a clock read — for a complex 2D, a complex
// 3D and a real graph, and 16 MiB for a complex 2D graph under forced
// streaming stores, whose stages on one lane fold their loads and stores
// into the compute leg (one lane's soft DMA).
func TestLaneBudgetCloses(t *testing.T) {
	for _, c := range []struct {
		dims   []int
		real   bool
		stores stagegraph.StorePolicy
	}{
		{[]int{2048, 1024}, false, stagegraph.StoreAuto},
		{[]int{128, 128, 128}, false, stagegraph.StoreAuto},
		{[]int{2048, 2048}, true, stagegraph.StoreAuto},
		{[]int{256, 4096}, false, stagegraph.StoreNonTemporal},
	} {
		for lanes := 1; lanes <= 2; lanes++ {
			name := fmt.Sprintf("%v real=%v streaming=%v lanes=%d", c.dims, c.real, c.stores == stagegraph.StoreNonTemporal, lanes)
			restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: c.stores})
			p, err := core.NewPlan(core.Config{Lanes: lanes}, c.real, c.dims...)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if folds := strings.Count(p.DescribeGraph(), "store folded"); lanes == 1 && c.stores == stagegraph.StoreNonTemporal &&
				layout.NonTemporalAvailable() && folds != 2 {
				t.Errorf("%s: %d stages fold their stores, want both:\n%s", name, folds, p.DescribeGraph())
			}
			forward := planForward(t, p)
			forward() // faults the arrays in
			before := p.Observability()
			forward()
			after := p.Observability()
			p.Close()
			var legs uint64
			for i, st := range after.Stages {
				b := before.Stages[i]
				legs += st.Load.Ns - b.Load.Ns + st.ComputeNs - b.ComputeNs + st.Store.Ns - b.Store.Ns
			}
			wall := float64(after.WallNs - before.WallNs)
			wait := after.BarrierWaitNs - before.BarrierWaitNs
			budget, want, tol := float64(legs), wall, 0.03
			if lanes > 1 {
				budget, want, tol = float64(legs+wait), float64(lanes)*wall, 0.05
			}
			t.Logf("%s: legs %.2f ms, barrier waits %.3f ms, wall %.2f ms", name, float64(legs)/1e6, float64(wait)/1e6, wall/1e6)
			if d := budget/want - 1; d < -tol || d > tol {
				t.Errorf("%s: legs + waits %.2f ms against %.2f ms, off by %.1f %% (bound %.0f %%)",
					name, budget/1e6, want/1e6, 100*d, 100*tol)
			}
			runtime.GC()
		}
	}
}

// planForward returns one forward transform of p between arrays of its size.
func planForward(t *testing.T, p *core.Plan) func() {
	if p.SpectrumLen() != p.Len() {
		x, spec := make([]float64, p.Len()), make([]complex128, p.SpectrumLen())
		for i := range x {
			x[i] = float64(i%17) - 8
		}
		return func() {
			if err := p.ForwardReal(spec, x, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, y := cvec.Random(rand.New(rand.NewSource(11)), p.Len()), make([]complex128, p.Len())
	return func() {
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
	}
}

// A plan on one lane runs on the caller's goroutine and holds none of its
// own: building and running eight of them, complex and real at rank 2 and
// 3, leaves the goroutine count where it was. Two lanes park one.
func TestOneLanePlansHoldNoGoroutine(t *testing.T) {
	shapes := []struct {
		dims []int
		real bool
	}{
		{[]int{64, 64}, false}, {[]int{32, 96}, false}, {[]int{16, 16, 16}, false}, {[]int{8, 12, 16}, false},
		{[]int{64, 64}, true}, {[]int{20, 60}, true}, {[]int{16, 16, 16}, true}, {[]int{6, 10, 12}, true},
	}
	before := runtime.NumGoroutine()
	var plans []*core.Plan
	for _, s := range shapes {
		p, err := core.NewPlan(core.Config{Lanes: 1, BufferElems: 1 << 10}, s.real, s.dims...)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
		planForward(t, p)()
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d one-lane plans: goroutines %d → %d", len(plans), before, got)
	}
	two, err := core.NewPlan(core.Config{Lanes: 2}, false, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before+1 {
		t.Errorf("a two-lane plan: goroutines %d → %d, want one parked lane", before, got)
	}
	for _, p := range append(plans, two) {
		p.Close()
	}
}

// Past nine lanes the pipeline-depth floor is one block a lane: on 20 lanes
// every stage of these shapes, each at least 20 units a stage, has a block
// for every lane, and the output is bitwise the one-lane plan's.
func TestManyLanesGetABlockEach(t *testing.T) {
	const lanes = 20
	for _, s := range []struct {
		dims []int
		real bool
	}{
		{[]int{128, 512}, false}, {[]int{32, 32, 64}, false}, {[]int{128, 512}, true},
	} {
		var outs [2][]complex128
		for i, l := range []int{1, lanes} {
			p, err := core.NewPlan(core.Config{Lanes: l}, s.real, s.dims...)
			if err != nil {
				t.Fatal(err)
			}
			if l == lanes {
				for st, it := range p.Iters() {
					if it < lanes {
						t.Errorf("%v real=%v: stage %d runs %d blocks on %d lanes", s.dims, s.real, st, it, lanes)
					}
				}
			}
			if s.real {
				x, spec := make([]float64, p.Len()), make([]complex128, p.SpectrumLen())
				for j := range x {
					x[j] = float64(j%17) - 8
				}
				if err := p.ForwardReal(spec, x, 1); err != nil {
					t.Fatal(err)
				}
				outs[i] = spec
			} else {
				x, y := cvec.Random(rand.New(rand.NewSource(5)), p.Len()), make([]complex128, p.Len())
				if err := p.Transform(y, x, fft1d.Forward); err != nil {
					t.Fatal(err)
				}
				outs[i] = y
			}
			p.Close()
		}
		if j := cvec.FirstBitDiff(outs[1], outs[0]); j >= 0 {
			t.Errorf("%v real=%v: %d lanes differ from one at element %d", s.dims, s.real, lanes, j)
		}
	}
}
