package coretest

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// The complex plan's checks that are not differential, one rank-free table
// each; every output of every path is held by the oracle. Each takes the
// ranks whose rows it runs, every rank when none is given.

func ranked(dims []int, ranks []int) bool {
	return len(ranks) == 0 || slices.Contains(ranks, len(dims))
}

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

// mustPlan builds the complex plan of dims under cfg, closed with the test.
func mustPlan(t *testing.T, cfg core.Config, dims ...int) *core.Plan {
	t.Helper()
	p, err := core.NewPlan(cfg, false, dims...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// validationDims are the grids whose plans the length checks run on.
var validationDims = [][]int{{4, 4}, {4, 4, 4}}

// Validation holds complex plans to their size and μ checks, their
// accessors and Transform's and InPlace's length checks.
func Validation(t *testing.T, ranks ...int) {
	for _, c := range []struct {
		mu   int
		dims []int
	}{{0, []int{0, 4}}, {0, []int{4, -1}}, {4, []int{8, 6}}, {0, []int{0, 4, 4}}, {4, []int{4, 4, 6}}} {
		if !ranked(c.dims, ranks) {
			continue
		}
		if _, err := core.NewPlan(core.Config{Mu: c.mu}, false, c.dims...); err == nil {
			t.Errorf("accepted %v at μ=%d", c.dims, c.mu)
		}
	}
	for _, dims := range validationDims {
		if !ranked(dims, ranks) {
			continue
		}
		p := mustPlan(t, core.Config{}, dims...)
		n := p.Len()
		if !slices.Equal(p.Dims(), dims) || n != 1<<(2*len(dims)) {
			t.Errorf("%v: Dims %v, Len %d", dims, p.Dims(), n)
		}
		if err := p.Transform(make([]complex128, n-1), make([]complex128, n), fft1d.Forward); err == nil {
			t.Errorf("%v: accepted a short dst", dims)
		}
		if err := p.InPlace(make([]complex128, n-1), fft1d.Forward); err == nil {
			t.Errorf("%v: accepted a short InPlace array", dims)
		}
	}
}

// InverseValidation: Inverse refuses a short dst.
func InverseValidation(t *testing.T, ranks ...int) {
	for _, dims := range validationDims {
		if !ranked(dims, ranks) {
			continue
		}
		p := mustPlan(t, core.Config{}, dims...)
		if err := p.Inverse(make([]complex128, p.Len()-1), make([]complex128, p.Len())); err == nil {
			t.Errorf("%v: Inverse accepted a short dst", dims)
		}
	}
}

// ManyValidation: TransformMany refuses a zero count and arrays that do not
// hold count grids.
func ManyValidation(t *testing.T, ranks ...int) {
	for _, dims := range validationDims {
		if !ranked(dims, ranks) {
			continue
		}
		p := mustPlan(t, core.Config{}, dims...)
		n := p.Len()
		if err := p.TransformMany(make([]complex128, n), make([]complex128, n), 0, fft1d.Forward); err == nil {
			t.Errorf("%v: accepted count=0", dims)
		}
		if err := p.TransformMany(make([]complex128, 2*n-1), make([]complex128, 2*n), 2, fft1d.Forward); err == nil {
			t.Errorf("%v: TransformMany accepted bad lengths", dims)
		}
	}
}

// StageIters: the pipeline-depth floor caps a stage's blocks below what the
// buffer alone allows, and a buffer smaller than one row degrades to one-row
// blocks.
func StageIters(t *testing.T, ranks ...int) {
	for _, c := range []struct {
		dims, want []int
	}{
		// 64/8 = 8 rows fit a stage-1 block (8 iterations), but the floor
		// caps blocks at 64/minStageIters = 7 units, rounded down to the
		// divisor 4; stages 2 and 3 (extent μ·k = 16) land on 1-unit blocks.
		{[]int{8, 8, 8}, []int{16, 16, 16}},
		// 64/16 = 4 rows fit (8 iterations), capped at 32/minStageIters = 3
		// rows, rounded down to the divisor 2.
		{[]int{32, 16}, []int{16, 4}},
		// b = 64 < m = 256: one-row blocks, the un-amortized panel cost the
		// paper predicts for §V's "1D FFT ≥ buffer" case.
		{[]int{8, 256}, []int{8, 32}},
	} {
		if !ranked(c.dims, ranks) {
			continue
		}
		if got := mustPlan(t, core.Config{Mu: 4, BufferElems: 64}, c.dims...).Iters(); !slices.Equal(got, c.want) {
			t.Errorf("%v: Iters = %v, want %v", c.dims, got, c.want)
		}
	}
}

// ScheduleTrace: a traced transform records the lane schedule — every
// block of every stage loaded, computed and stored exactly once, in order,
// by the lane whose share it is, and no stage starting before the last
// store of the one before — on two kinds of graph:
//   - small shapes on one, two and three lanes with the load leg kept
//     (CopyLoads), so the in-cache 2D stages record their loads too;
//   - one and two lanes with the soft DMA on and streaming stores forced, on
//     shapes whose chains end in radix 16: every load folds into the first
//     sweep and the radix-16 stages' stores into the last, and those folded
//     legs are recorded too.
func ScheduleTrace(t *testing.T, ranks ...int) {
	for _, c := range []struct {
		abl   stagegraph.Ablation
		cfg   core.Config
		dims  [][]int
		lanes []int
	}{
		{stagegraph.Ablation{CopyLoads: true}, core.Config{Mu: 4, BufferElems: 64},
			[][]int{{32, 16}, {8, 8, 8}}, []int{1, 2, 3}},
		{stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, core.Config{},
			[][]int{{256, 256}, {4, 8, 256}}, []int{1, 2}},
	} {
		func() {
			defer stagegraph.SetAblation(c.abl)()
			for _, dims := range c.dims {
				if !ranked(dims, ranks) {
					continue
				}
				for _, lanes := range c.lanes {
					tr := trace.New()
					cfg := c.cfg
					cfg.Lanes, cfg.Tracer = lanes, tr
					p := mustPlan(t, cfg, dims...)
					if err := p.Transform(make([]complex128, p.Len()), randVec(9, p.Len()), fft1d.Forward); err != nil {
						t.Fatal(err)
					}
					if err := stagegraph.CheckLanes(tr, p.Iters(), lanes); err != nil {
						t.Errorf("%+v %v on %d lanes: %v", c.abl, dims, lanes, err)
					}
				}
			}
		}()
	}
}

// FusionStatsSteps: the telemetry attributes the whole transform, every
// stage of it: Steps counts each block of each stage once a run, whatever
// the lane count.
func FusionStatsSteps(t *testing.T, ranks ...int) {
	for _, dims := range [][]int{{16, 16}, {8, 8, 16}} {
		if !ranked(dims, ranks) {
			continue
		}
		for lanes := 1; lanes <= 2; lanes++ {
			p := mustPlan(t, core.Config{Mu: 4, BufferElems: 128, Lanes: lanes}, dims...)
			if err := p.Transform(make([]complex128, p.Len()), randVec(5, p.Len()), fft1d.Forward); err != nil {
				t.Fatal(err)
			}
			o := p.Observability()
			blocks := 0
			for _, n := range p.Iters() {
				blocks += n
			}
			if len(o.Stages) != len(dims) || o.Steps != uint64(blocks) {
				t.Errorf("%v on %d lanes: %d stages, %d steps; want %d and %d", dims, lanes, len(o.Stages), o.Steps, len(dims), blocks)
			}
		}
	}
}

// DefaultMu: plan-time μ comes from the machine model (the largest of 8/4/2
// dividing m), not a hardcoded 4 — μ=8 measures ~0.95 of STREAM peak on the
// blocked transpose against ~0.65 for μ=4 — and an explicit μ wins over it.
func DefaultMu(t *testing.T, ranks ...int) {
	for _, c := range []struct {
		dims []int
		want int
	}{
		{[]int{256, 256}, 8}, {[]int{64, 64}, 8}, {[]int{16, 12}, 4}, {[]int{8, 6}, 2}, {[]int{4, 7}, 1},
		{[]int{64, 64, 64}, 8}, {[]int{4, 8, 12}, 4}, {[]int{2, 4, 6}, 2}, {[]int{2, 2, 7}, 1},
	} {
		if !ranked(c.dims, ranks) {
			continue
		}
		if got := machine.PreferredMu(c.dims[len(c.dims)-1]); got != c.want {
			t.Errorf("PreferredMu(%d) = %d; want %d", c.dims[len(c.dims)-1], got, c.want)
		}
		if got := mustPlan(t, core.Config{BufferElems: 1 << 10}, c.dims...).Mu(); got != c.want {
			t.Errorf("%v: default μ = %d; want %d", c.dims, got, c.want)
		}
	}
	for _, dims := range [][]int{{64, 64}, {8, 8, 8}} {
		if !ranked(dims, ranks) {
			continue
		}
		if got := mustPlan(t, core.Config{Mu: 4}, dims...).Mu(); got != 4 {
			t.Errorf("%v: explicit μ=4 overridden to %d", dims, got)
		}
	}
}

// StorePolicyWiring: forced streaming stores flag every stage, forced cached
// stores none, and the footprint rule keeps a cache-resident grid cached.
func StorePolicyWiring(t *testing.T, ranks ...int) {
	for _, dims := range [][]int{{64, 64}, {16, 16, 16}} {
		if !ranked(dims, ranks) {
			continue
		}
		nt := 0
		if layout.NonTemporalAvailable() {
			nt = len(dims)
		}
		for policy, want := range map[stagegraph.StorePolicy]int{
			stagegraph.StoreNonTemporal: nt, stagegraph.StoreRegular: 0, stagegraph.StoreAuto: 0,
		} {
			restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: policy})
			p := mustPlan(t, core.Config{}, dims...)
			restore()
			if got := p.NonTemporalStages(); got != want {
				t.Errorf("%v policy %v: %d streaming stages; want %d", dims, policy, got, want)
			}
		}
	}
}
