package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// An idle plan holds nothing: its runs lease their lanes and middle arrays
// from the process engine and return them. Eight complex and real rank-2/3
// plans, each run once and all kept open, leave one pooled team of L − 1
// parked lanes between them — none on one lane — and a heap grown by the
// largest plan's middle arrays plus 10 %, not by the sum over the eight
// (76 MiB here). Closing all eight brings both back to where they were.
func TestIdlePlansHoldNothing(t *testing.T) {
	shapes := []struct {
		dims []int
		real bool
	}{
		{[]int{512, 512}, false}, {[]int{128, 64, 128}, true}, {[]int{32, 64, 64}, false}, {[]int{64, 128, 128}, true},
		{[]int{128, 128, 64}, false}, {[]int{512, 512}, true}, {[]int{64, 128, 128}, false}, {[]int{32, 64, 64}, true},
	}
	// The largest plans' middle arrays: one complex array of 2²⁰ elements,
	// or a real plan's two of the packed grid's 2¹⁹.
	const largest = 1 << 20 * 16
	// Operands are allocated once, before the baselines.
	x, re, y := make([]complex128, 1<<20), make([]float64, 1<<20), make([]complex128, 1<<20)
	for i := range re {
		re[i] = float64(i%17) - 8
		x[i] = complex(re[i], 1)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for lanes := 1; lanes <= 3; lanes++ {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			goroutines, inuse := runtime.NumGoroutine(), heap()
			var plans []*core.Plan
			for _, s := range shapes {
				p, err := core.NewPlan(core.Config{Lanes: lanes, BufferElems: 1 << 10}, s.real, s.dims...)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, p)
				if s.real {
					err = p.ForwardReal(y[:p.SpectrumLen()], re[:p.Len()], 1)
				} else {
					err = p.Transform(y[:p.Len()], x[:p.Len()], fft1d.Forward)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := runtime.NumGoroutine(); got > goroutines+lanes-1 {
				t.Errorf("%d idle plans: goroutines %d → %d, want at most one team's %d parked lanes",
					len(plans), goroutines, got, lanes-1)
			}
			grown := int64(heap()) - int64(inuse)
			t.Logf("%d idle plans: heap in use grew %.1f MiB", len(plans), float64(grown)/(1<<20))
			if grown > largest*11/10 {
				t.Errorf("%d idle plans: heap in use grew %.1f MiB, want ≤ %.1f MiB (the largest plan's middle arrays + 10 %%)",
					len(plans), float64(grown)/(1<<20), float64(largest)*1.1/(1<<20))
			}
			for _, p := range plans {
				p.Close()
			}
			plans = nil
			deadline := time.Now().Add(5 * time.Second)
			for {
				g, h := runtime.NumGoroutine(), heap()
				if g <= goroutines && h <= inuse+largest/10 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after Close: goroutines %d → %d, heap in use %.1f → %.1f MiB",
						goroutines, g, float64(inuse)/(1<<20), float64(h)/(1<<20))
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
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

// Plans of different sizes run at once, each on the team and work array it
// leased: two goroutines transform with a complex 2D and a complex 3D plan
// on two lanes, forward then inverse, and every result is bitwise the one
// each plan gave alone. Under -race a team or array handed to both runs
// would also be reported.
func TestConcurrentPlansLeaseTheirOwn(t *testing.T) {
	var plans [2]*core.Plan
	var xs, want, wantBack [2][]complex128
	for i, dims := range [][]int{{32, 64}, {16, 16, 32}} {
		p, err := core.NewPlan(core.Config{Lanes: 2, BufferElems: 1 << 9}, false, dims...)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		plans[i], xs[i] = p, cvec.Random(rand.New(rand.NewSource(int64(i+3))), p.Len())
		want[i], wantBack[i] = make([]complex128, p.Len()), make([]complex128, p.Len())
		if err := p.Transform(want[i], xs[i], fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(wantBack[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, back := make([]complex128, p.Len()), make([]complex128, p.Len())
			for r := 0; r < 20; r++ {
				if err := p.Transform(y, xs[i], fft1d.Forward); err != nil {
					t.Error(err)
					return
				}
				if j := cvec.FirstBitDiff(y, want[i]); j >= 0 {
					t.Errorf("%v round %d: element %d differs from the plan's result alone", p.Dims(), r, j)
					return
				}
				if err := p.Inverse(back, y); err != nil {
					t.Error(err)
					return
				}
				if j := cvec.FirstBitDiff(back, wantBack[i]); j >= 0 {
					t.Errorf("%v round %d: inverse element %d differs from the plan's result alone", p.Dims(), r, j)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A plan dropped without Close can be collected, so its runner's finalizer
// closes it and the engine's live count falls: no hook of its graphs
// points back at the plan. A real plan's entangle hook once did, through
// the plan's row mirror, and kept every dropped real plan's runner alive.
func TestDroppedPlansAreCollected(t *testing.T) {
	for _, s := range []struct {
		dims []int
		real bool
	}{{[]int{16, 32}, false}, {[]int{64}, true}, {[]int{16, 32}, true}, {[]int{8, 8, 16}, true}} {
		collected := make(chan struct{})
		func() {
			p, err := core.NewPlan(core.Config{Lanes: 2}, s.real, s.dims...)
			if err != nil {
				t.Fatal(err)
			}
			planForward(t, p)()
			runtime.SetFinalizer(p, func(*core.Plan) { close(collected) })
		}()
		deadline := time.Now().Add(5 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-collected:
				break wait
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v real=%v: a dropped plan was never collected", s.dims, s.real)
			}
		}
	}
}
