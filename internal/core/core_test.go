package core

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/machine"
)

// Default restates no kernel-shape default: zero μ, buffer and format mean
// "the plan package decides", so a Default() plan is the plan the plan
// packages' zero-value Options build (the root drift-guard test compares
// the compiled graphs and outputs).
func TestDefaultConfig(t *testing.T) {
	c := Default()
	if c.Strategy != StrategyDoubleBuf || c.DataWorkers < 1 || c.ComputeWorkers < 1 || !c.StageFusion {
		t.Fatalf("Default() = %+v", c)
	}
	if c.Mu != 0 || c.BufferElems != 0 || c.Radix != 0 {
		t.Fatalf("Default() restates a plan-package default: %+v", c)
	}
	p, err := NewPlan2D(64, 64, c)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := p.plan.Mu(), machine.PreferredMu(64); got != want {
		t.Errorf("default plan runs μ=%d, want machine.PreferredMu = %d", got, want)
	}
}

func TestForMachineAppliesPaperRules(t *testing.T) {
	c := ForMachine(machine.KabyLake7700K)
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
	cfg := Default()
	cfg.DataWorkers, cfg.ComputeWorkers = 2, 2
	cfg.BufferElems = 256
	p, err := NewPlan3D(8, 8, 16, cfg)
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
	if err := p.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-9 {
		t.Fatalf("round trip diff %g", d)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(y)); d > 1e-9 {
		t.Fatalf("InPlace diff %g", d)
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.BufferElems = 256
	p, err := NewPlan2D(16, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 512 {
		t.Fatal("Len wrong")
	}
	if n, m := p.Dims(); n != 16 || m != 32 {
		t.Fatal("Dims wrong")
	}
	x := cvec.Random(rand.New(rand.NewSource(2)), p.Len())
	y := make([]complex128, p.Len())
	z := make([]complex128, p.Len())
	if err := p.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > 1e-9 {
		t.Fatalf("round trip diff %g", d)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(y)); d > 1e-9 {
		t.Fatalf("InPlace diff %g", d)
	}
}

func TestAllStrategiesBuildAndAgree(t *testing.T) {
	x := cvec.Random(rand.New(rand.NewSource(3)), 8*8*8)
	var ref []complex128
	for _, s := range []string{StrategyReference, StrategyPencil, StrategySlab, StrategyDoubleBuf} {
		cfg := Default()
		cfg.Strategy = s
		cfg.BufferElems = 128
		p, err := NewPlan3D(8, 8, 8, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		y := make([]complex128, 512)
		if err := p.Forward(y, x); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ref == nil {
			ref = y
			continue
		}
		if d := cvec.MaxDiff(cvec.Vec(y), cvec.Vec(ref)); d > 1e-8 {
			t.Errorf("%s disagrees with reference: %g", s, d)
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	cfg := Default()
	cfg.Strategy = "warp-drive"
	if _, err := NewPlan3D(8, 8, 8, cfg); err == nil {
		t.Error("3D accepted unknown strategy")
	}
	if _, err := NewPlan2D(8, 8, cfg); err == nil {
		t.Error("2D accepted unknown strategy")
	}
}

func TestInvalidSizeRejected(t *testing.T) {
	if _, err := NewPlan3D(0, 8, 8, Default()); err == nil {
		t.Error("accepted k=0")
	}
	// A defaulted μ adapts to the row length (8×6 runs μ=2) …
	p, err := NewPlan2D(8, 6, Default())
	if err != nil {
		t.Fatalf("default μ should adapt to m=6: %v", err)
	}
	p.Close()
	// … an explicit μ that does not divide m is still an error.
	cfg := Default()
	cfg.Mu = 4
	if _, err := NewPlan2D(8, 6, cfg); err == nil {
		t.Error("accepted explicit μ∤m under doublebuf")
	}
}
