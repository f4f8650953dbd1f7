package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/machine"
)

// Default is the zero Config with the paper's worker rule applied: it
// restates no default the graph builder owns (the root defaults test
// compares the compiled graphs and outputs of the two).
func TestDefaultConfig(t *testing.T) {
	c := core.Default()
	if c.DataWorkers < 1 || c.ComputeWorkers < 1 || c.Workers < 1 {
		t.Fatalf("Default() = %+v", c)
	}
	c.DataWorkers, c.ComputeWorkers, c.Workers = 0, 0, 0
	if c != (core.Config{}) {
		t.Fatalf("Default() sets more than the worker counts: %+v", c)
	}
	p, err := fft2d.NewPlan(64, 64, core.Default())
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
	p, err := fft3d.NewPlan(8, 8, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1024 {
		t.Fatal("Len wrong")
	}
	if k, n, m := p.Dims(); k != 8 || n != 8 || m != 16 {
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
	p, err := fft2d.NewPlan(16, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 16 || p.M() != 32 {
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

func TestAllStrategiesBuildAndAgree(t *testing.T) {
	x := cvec.Random(rand.New(rand.NewSource(3)), 8*8*8)
	var ref []complex128
	for _, s := range []core.Strategy{core.Reference, core.Pencil, core.Slab, core.DoubleBuf} {
		cfg := core.Default()
		cfg.Strategy = s
		cfg.BufferElems = 128
		p, err := fft3d.NewPlan(8, 8, 8, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		y := make([]complex128, 512)
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ref == nil {
			ref = y
			continue
		}
		if d := cvec.MaxDiff(cvec.Vec(y), cvec.Vec(ref)); d > 1e-8 {
			t.Errorf("%v disagrees with reference: %g", s, d)
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	cfg := core.Default()
	cfg.Strategy = core.Slab + 1
	if _, err := fft3d.NewPlan(8, 8, 8, cfg); err == nil {
		t.Error("3D accepted unknown strategy")
	}
	if _, err := fft2d.NewPlan(8, 8, cfg); err == nil {
		t.Error("2D accepted unknown strategy")
	}
	if _, err := core.ParseStrategy("warp-drive"); err == nil {
		t.Error("parsed unknown strategy name")
	}
	for _, s := range []core.Strategy{core.DoubleBuf, core.Reference, core.Pencil, core.Slab} {
		if got, err := core.ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
}

func TestInvalidSizeRejected(t *testing.T) {
	if _, err := fft3d.NewPlan(0, 8, 8, core.Default()); err == nil {
		t.Error("accepted k=0")
	}
	// A defaulted μ adapts to the row length (8×6 runs μ=2) …
	p, err := fft2d.NewPlan(8, 6, core.Default())
	if err != nil {
		t.Fatalf("default μ should adapt to m=6: %v", err)
	}
	p.Close()
	// … an explicit μ that does not divide m is still an error.
	cfg := core.Default()
	cfg.Mu = 4
	if _, err := fft2d.NewPlan(8, 6, cfg); err == nil {
		t.Error("accepted explicit μ∤m under doublebuf")
	}
}
