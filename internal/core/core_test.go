package core_test

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/spl"
)

// Default is the zero Config with one lane per GOMAXPROCS: it restates no
// default the graph builder owns (the root defaults test compares the
// compiled graphs and outputs of the two).
func TestDefaultConfig(t *testing.T) {
	c := core.Default()
	if c.Lanes != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %+v, want %d lanes", c, runtime.GOMAXPROCS(0))
	}
	c.Lanes = 0
	if c != (core.Config{}) {
		t.Fatalf("Default() sets more than the lane count: %+v", c)
	}
	p, err := core.NewPlan(core.Default(), false, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := p.Mu(), machine.PreferredMu(64); got != want {
		t.Errorf("default plan runs μ=%d, want machine.PreferredMu = %d", got, want)
	}
}

func TestForMachineAppliesPaperRules(t *testing.T) {
	c := core.ForMachine(machine.KabyLake7700K)
	if c.Mu != 4 {
		t.Errorf("μ = %d, want 4 (64 B line / 16 B complex)", c.Mu)
	}
	if c.BufferElems != 131072 {
		t.Errorf("b = %d, want 131072 (LLC/2 over two halves)", c.BufferElems)
	}
	if c.Lanes != 4 {
		t.Errorf("lanes = %d, want 4 (one per data/compute pair of 8 threads)", c.Lanes)
	}
}

// The one strategy core builds — the pipeline — and the baselines it is
// measured against compute the same 3D DFT as the spl oracle.
func TestAllStrategiesBuildAndAgree(t *testing.T) {
	x := cvec.Random(rand.New(rand.NewSource(3)), 8*8*8)
	want := spl.Eval(spl.DFT3D(8, 8, 8), x)
	cfg := core.Default()
	cfg.BufferElems = 128
	p, err := core.NewPlan(cfg, false, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pipeline := make([]complex128, 512)
	if err := p.Transform(pipeline, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	pencil := append([]complex128(nil), x...)
	bench.Pencil3D(pencil, 8, 8, 8, fft1d.Forward, 2)
	slab := append([]complex128(nil), x...)
	bench.Slab3D(slab, 8, 8, 8, fft1d.Forward, 2)
	for name, y := range map[string][]complex128{"doublebuf": pipeline, "pencil": pencil, "slab": slab} {
		if d := cvec.MaxDiff(cvec.Vec(y), cvec.Vec(want)); d > 1e-8 {
			t.Errorf("%s disagrees with reference: %g", name, d)
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	cfg := core.Default()
	for _, s := range []core.Strategy{core.DoubleBuf + 1, core.DoubleBuf - 1} {
		cfg.Strategy = s
		if _, err := core.NewPlan(cfg, false, 8, 8, 8); err == nil {
			t.Errorf("3D accepted strategy %d", s)
		}
		if _, err := core.NewPlan(cfg, false, 8, 8); err == nil {
			t.Errorf("2D accepted strategy %d", s)
		}
		if _, err := core.NewPlan(cfg, true, 8, 8); err == nil {
			t.Errorf("real 2D accepted strategy %d", s)
		}
	}
}

// Check is the whole shape rule: rank 1 to 3, extents ≥ 1 inside the rank
// and 0 past it, a product within the cap — even one that wraps an int to 0
// is refused as too large, because Check divides the cap — and an even
// last extent on a real shape.
func TestInvalidSizeRejected(t *testing.T) {
	for _, c := range []struct {
		s        core.Shape
		max      int
		ok       bool
		tooLarge bool
	}{
		{core.ShapeOf(false, 4, 8), core.MaxElems, true, false},
		{core.ShapeOf(false, core.MaxElems), core.MaxElems, true, false},
		{core.ShapeOf(false, core.MaxElems, 2), core.MaxElems, false, true},
		{core.ShapeOf(false, 1<<32, 1<<32), core.MaxElems, false, true},
		{core.ShapeOf(false, 4, 4, 4), 64, true, false},
		{core.ShapeOf(false, 4, 4, 5), 64, false, true},
		{core.ShapeOf(false, 8, 0), core.MaxElems, false, false},
		{core.ShapeOf(false), core.MaxElems, false, false},
		{core.ShapeOf(false, 2, 2, 2, 2), core.MaxElems, false, false},
		{core.Shape{Rank: 1, Dims: [3]int{4, 4}}, core.MaxElems, false, false},
		{core.ShapeOf(true, 4, 6), core.MaxElems, true, false},
		{core.ShapeOf(true, 6, 5), core.MaxElems, false, false},
		{core.ShapeOf(true, 1), core.MaxElems, false, false},
	} {
		err := c.s.Check(c.max)
		if (err == nil) != c.ok || errors.Is(err, core.ErrTooLarge) != c.tooLarge {
			t.Errorf("%+v.Check(%d) = %v; want ok %v, too large %v", c.s, c.max, err, c.ok, c.tooLarge)
		}
	}
}

// A shape's lengths: the array and its spectrum forward, the reverse
// inverse; only a real shape's spectrum is the half one. Sharded means rank
// 3 and complex.
func TestShapeLens(t *testing.T) {
	for _, c := range []struct {
		s         core.Shape
		elems     int
		spec      int
		shardable bool
	}{
		{core.ShapeOf(false, 8), 8, 8, false},
		{core.ShapeOf(true, 8), 8, 5, false},
		{core.ShapeOf(true, 3, 4, 6), 72, 48, false},
		{core.ShapeOf(false, 3, 4, 6), 72, 72, true},
	} {
		fs, fd := c.s.Lens(false)
		is, id := c.s.Lens(true)
		if c.s.Elems() != c.elems || c.s.SpectrumElems() != c.spec || fs != c.elems || fd != c.spec || is != c.spec || id != c.elems {
			t.Errorf("%+v: Elems %d, SpectrumElems %d, Lens %d→%d and %d→%d; want %d and %d",
				c.s, c.s.Elems(), c.s.SpectrumElems(), fs, fd, is, id, c.elems, c.spec)
		}
		if err := c.s.CheckSharded(); (err == nil) != c.shardable {
			t.Errorf("%+v: CheckSharded = %v, want shardable %v", c.s, err, c.shardable)
		}
	}
}

// A complex plan takes one to three extents, each ≥ 1.
func TestComplexRankRejected(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {2, 2, 2, 2}} {
		if _, err := core.NewPlan(core.Config{}, false, dims...); err == nil {
			t.Errorf("complex %v accepted", dims)
		}
	}
}

// Every entry point of the other domain returns ErrDomain and runs nothing:
// the complex ones on a real plan, the real ones on a complex plan.
func TestEntryPointsCheckTheDomain(t *testing.T) {
	cp, err := core.NewPlan(core.Config{}, false, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	rp, err := core.NewPlan(core.Config{}, true, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	c, r := make([]complex128, 32), make([]float64, 32)
	for name, err := range map[string]error{
		"Transform":     rp.Transform(c, c, fft1d.Forward),
		"Inverse":       rp.Inverse(c, c),
		"InPlace":       rp.InPlace(c, fft1d.Forward),
		"TransformMany": rp.TransformMany(c, c, 1, fft1d.Forward),
		"ForwardReal":   cp.ForwardReal(c, r, 1),
		"InverseReal":   cp.InverseReal(r, c, 1),
	} {
		if !errors.Is(err, core.ErrDomain) {
			t.Errorf("%s on the other domain: %v, want ErrDomain", name, err)
		}
	}
	if o := rp.Observability(); o.Runs != 0 {
		t.Errorf("a refused call ran the pipeline: %d runs", o.Runs)
	}
	if cp.SpectrumLen() != 32 || rp.SpectrumLen() != 4*5 || rp.Len() != 32 {
		t.Errorf("SpectrumLen %d / %d, Len %d", cp.SpectrumLen(), rp.SpectrumLen(), rp.Len())
	}
}
