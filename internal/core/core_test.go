package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/spl"
)

// Default is the zero Config with the paper's worker rule applied: it
// restates no default the graph builder owns (the root defaults test
// compares the compiled graphs and outputs of the two).
func TestDefaultConfig(t *testing.T) {
	c := core.Default()
	if c.DataWorkers < 1 || c.ComputeWorkers < 1 {
		t.Fatalf("Default() = %+v", c)
	}
	c.DataWorkers, c.ComputeWorkers = 0, 0
	if c != (core.Config{}) {
		t.Fatalf("Default() sets more than the worker counts: %+v", c)
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
	if c.DataWorkers != 4 || c.ComputeWorkers != 4 {
		t.Errorf("workers = %d/%d, want 4/4 (half of 8 threads each)", c.DataWorkers, c.ComputeWorkers)
	}
}

func TestPlan3DRoundTrip(t *testing.T) {
	cfg := core.Default()
	cfg.DataWorkers, cfg.ComputeWorkers = 2, 2
	cfg.BufferElems = 256
	p, err := core.NewPlan(cfg, false, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1024 {
		t.Fatal("Len wrong")
	}
	if d := p.Dims(); len(d) != 3 || d[0] != 8 || d[1] != 8 || d[2] != 16 {
		t.Fatal("Dims wrong")
	}
	x := cvec.Random(rand.New(rand.NewSource(1)), p.Len())
	y := make([]complex128, p.Len())
	z := make([]complex128, p.Len())
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-9 {
		t.Fatalf("round trip diff %g", d)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(y)); d > 1e-9 {
		t.Fatalf("InPlace diff %g", d)
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	cfg := core.Default()
	cfg.BufferElems = 256
	p, err := core.NewPlan(cfg, false, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dims(); len(d) != 2 || d[0] != 16 || d[1] != 32 || p.Len() != 512 {
		t.Fatal("dims wrong")
	}
	x := cvec.Random(rand.New(rand.NewSource(2)), 512)
	y := make([]complex128, 512)
	z := make([]complex128, 512)
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-9 {
		t.Fatalf("round trip diff %g", d)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(y)); d > 1e-9 {
		t.Fatalf("InPlace diff %g", d)
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

func TestInvalidSizeRejected(t *testing.T) {
	if _, err := core.NewPlan(core.Default(), false, 0, 8, 8); err == nil {
		t.Error("accepted k=0")
	}
	// Elems divides the cap: products past MaxElems, even ones that wrap an
	// int to 0, are refused.
	for _, c := range []struct {
		dims []int
		n    int
		ok   bool
	}{
		{[]int{4, 8}, 32, true},
		{[]int{core.MaxElems}, core.MaxElems, true},
		{[]int{core.MaxElems, 2}, 0, false},
		{[]int{1 << 32, 1 << 32}, 0, false},
		{[]int{8, 0}, 0, false},
	} {
		if n, ok := core.Elems(c.dims...); n != c.n || ok != c.ok {
			t.Errorf("Elems(%v) = %d, %v; want %d, %v", c.dims, n, ok, c.n, c.ok)
		}
	}
	// A defaulted μ adapts to the row length (8×6 runs μ=2) …
	p, err := core.NewPlan(core.Default(), false, 8, 6)
	if err != nil {
		t.Fatalf("default μ should adapt to m=6: %v", err)
	}
	p.Close()
	// … an explicit μ that does not divide m is still an error.
	cfg := core.Default()
	cfg.Mu = 4
	if _, err := core.NewPlan(cfg, false, 8, 6); err == nil {
		t.Error("accepted explicit μ∤m under doublebuf")
	}
}

// A complex plan takes two or three extents: rank 1 is fft1d.Plan.
func TestComplexRankRejected(t *testing.T) {
	for _, dims := range [][]int{{}, {8}, {2, 2, 2, 2}} {
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
	if st := rp.Stats(); st.Steps != 0 {
		t.Errorf("a refused call ran the pipeline: %+v", st)
	}
	if cp.SpectrumLen() != 32 || rp.SpectrumLen() != 4*5 || rp.Len() != 32 {
		t.Errorf("SpectrumLen %d / %d, Len %d", cp.SpectrumLen(), rp.SpectrumLen(), rp.Len())
	}
}
