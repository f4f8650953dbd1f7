package fft3d

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/spl"
	"repro/internal/trace"
)

const tol = 1e-9

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

func TestReferenceMatchesSPL(t *testing.T) {
	for _, c := range []struct{ k, n, m int }{
		{1, 1, 1}, {2, 2, 2}, {2, 4, 8}, {4, 2, 4}, {3, 2, 5},
	} {
		p, err := NewPlan(c.k, c.n, c.m, core.Config{Strategy: core.Reference})
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(int64(c.k*c.n*c.m), c.k*c.n*c.m)
		got := make([]complex128, len(x))
		if err := p.Transform(got, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		want := spl.Eval(spl.DFT3D(c.k, c.n, c.m), x)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(len(x)) {
			t.Errorf("reference %dx%dx%d: diff %g", c.k, c.n, c.m, d)
		}
	}
}

func strategyCase(t *testing.T, k, n, m int, opts core.Config, sign int) {
	t.Helper()
	ref, _ := NewPlan(k, n, m, core.Config{Strategy: core.Reference})
	p, err := NewPlan(k, n, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(int64(k*100+n*10+m+sign), k*n*m)
	want := make([]complex128, len(x))
	got := make([]complex128, len(x))
	if err := ref.Transform(want, x, sign); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(got, x, sign); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(k*n*m) {
		t.Errorf("%v %dx%dx%d (opts %+v): diff %g", opts.Strategy, k, n, m, opts, d)
	}
}

func TestPencilMatchesReference(t *testing.T) {
	strategyCase(t, 4, 4, 4, core.Config{Strategy: core.Pencil}, fft1d.Forward)
	strategyCase(t, 8, 8, 8, core.Config{Strategy: core.Pencil, Workers: 3}, fft1d.Forward)
	strategyCase(t, 2, 8, 16, core.Config{Strategy: core.Pencil, Workers: 2}, fft1d.Inverse)
	strategyCase(t, 5, 3, 6, core.Config{Strategy: core.Pencil, Workers: 4}, fft1d.Forward)
}

func TestSlabMatchesReference(t *testing.T) {
	strategyCase(t, 4, 8, 8, core.Config{Strategy: core.Slab}, fft1d.Forward)
	strategyCase(t, 8, 4, 16, core.Config{Strategy: core.Slab, Workers: 3}, fft1d.Forward)
	strategyCase(t, 2, 16, 8, core.Config{Strategy: core.Slab, Workers: 2}, fft1d.Inverse)
}

func TestDoubleBufMatchesReference(t *testing.T) {
	for _, c := range []struct {
		k, n, m, mu, b, pd, pc int
	}{
		{4, 4, 4, 4, 16, 1, 1},
		{8, 8, 8, 4, 64, 1, 1},
		{8, 8, 8, 4, 64, 2, 2},
		{16, 8, 32, 8, 256, 2, 3},
		{4, 16, 16, 4, 1 << 20, 1, 1}, // one block per stage
		{2, 4, 8, 4, 8, 1, 1},         // minimal blocks, many iterations
		{16, 16, 16, 16, 512, 3, 2},   // μ = m/1? μ=16=m
	} {
		strategyCase(t, c.k, c.n, c.m, core.Config{
			Strategy: core.DoubleBuf, Mu: c.mu, BufferElems: c.b,
			DataWorkers: c.pd, ComputeWorkers: c.pc,
		}, fft1d.Forward)
	}
}

func TestDoubleBufInverseAndRoundTrip(t *testing.T) {
	strategyCase(t, 8, 8, 8, core.Config{Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2}, fft1d.Inverse)
	strategyCase(t, 8, 8, 8, core.Config{Strategy: core.DoubleBuf}, fft1d.Inverse)

	const k, n, m = 16, 16, 16
	p, err := NewPlan(k, n, m, core.Config{Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(55, k*n*m)
	y := make([]complex128, len(x))
	z := make([]complex128, len(x))
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(z, y, fft1d.Inverse); err != nil {
		t.Fatal(err)
	}
	fft1d.Scale(z, 1/float64(k*n*m))
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > tol {
		t.Fatalf("round trip diff %g", d)
	}
}

func TestInPlaceAllStrategies(t *testing.T) {
	const k, n, m = 8, 8, 8
	ref, _ := NewPlan(k, n, m, core.Config{Strategy: core.Reference})
	x := randVec(66, k*n*m)
	want := make([]complex128, len(x))
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Strategy{core.Reference, core.Pencil, core.Slab, core.DoubleBuf} {
		p, err := NewPlan(k, n, m, core.Config{Strategy: s, Workers: 2, DataWorkers: 2, ComputeWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.InPlace(got, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(k*n*m) {
			t.Errorf("%v InPlace: diff %g", s, d)
		}
	}
}

func TestNonCubicSizes(t *testing.T) {
	// The paper's Fig. 1 sweeps non-cubic 2^k×2^n×2^m shapes.
	for _, c := range []struct{ k, n, m int }{
		{4, 8, 16}, {16, 8, 4}, {8, 16, 4}, {32, 4, 8},
	} {
		strategyCase(t, c.k, c.n, c.m, core.Config{
			Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2, BufferElems: 128,
		}, fft1d.Forward)
	}
}

func TestStageIters(t *testing.T) {
	p, err := NewPlan(8, 8, 8, core.Config{Strategy: core.DoubleBuf, Mu: 4, BufferElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, s3 := p.StageIters()
	// Capacity alone would allow 64/8 = 8 rows per stage-1 block (8 iters),
	// but the pipeline-depth floor caps blocks at 64/minStageIters = 7
	// units, rounded down to the divisor 4 — 16 iterations per stage.
	// Stages 2 and 3 (extent mb·k = 16) land on 16/9 → 1-unit blocks.
	if s1 != 16 || s2 != 16 || s3 != 16 {
		t.Fatalf("StageIters = %d,%d,%d, want 16,16,16", s1, s2, s3)
	}
	ref, _ := NewPlan(4, 4, 4, core.Config{Strategy: core.Reference})
	if a, b, c := ref.StageIters(); a != 0 || b != 0 || c != 0 {
		t.Fatal("non-core.DoubleBuf plans should report zero iters")
	}
}

func TestDoubleBufScheduleTrace(t *testing.T) {
	tr := trace.New()
	p, err := NewPlan(8, 8, 8, core.Config{
		Strategy: core.DoubleBuf, Mu: 4, BufferElems: 128,
		DataWorkers: 2, ComputeWorkers: 2, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(9, 512)
	y := make([]complex128, 512)
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no pipeline events recorded")
	}
	var loads, computes, stores int
	for _, e := range evs {
		switch e.Op {
		case trace.Load:
			loads++
		case trace.Compute:
			computes++
		case trace.Store:
			stores++
		}
	}
	if loads == 0 || computes == 0 || stores == 0 {
		t.Fatalf("missing op kinds: %d/%d/%d", loads, computes, stores)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewPlan(0, 4, 4, core.Config{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewPlan(4, 4, 6, core.Config{Strategy: core.DoubleBuf, Mu: 4}); err == nil {
		t.Error("accepted μ∤m")
	}
	p, _ := NewPlan(4, 4, 4, core.Config{})
	if err := p.Transform(make([]complex128, 63), make([]complex128, 64), fft1d.Forward); err == nil {
		t.Error("accepted bad lengths")
	}
	if err := p.InPlace(make([]complex128, 63), fft1d.Forward); err == nil {
		t.Error("accepted bad InPlace length")
	}
	if k, n, m := p.Dims(); k != 4 || n != 4 || m != 4 {
		t.Error("Dims wrong")
	}
	if p.Len() != 64 {
		t.Error("Len wrong")
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[core.Strategy]string{
		core.Reference: "reference", core.Pencil: "pencil", core.Slab: "slab", core.DoubleBuf: "doublebuf",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

// Property: linearity of the full 3D transform through the DoubleBuf path.
func TestDoubleBufLinearity(t *testing.T) {
	const k, n, m = 8, 8, 8
	p, err := NewPlan(k, n, m, core.Config{Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	x := cvec.Random(rng, k*n*m)
	y := cvec.Random(rng, k*n*m)
	a := complex(1.5, -0.5)
	z := make([]complex128, len(x))
	for i := range z {
		z[i] = a*x[i] + y[i]
	}
	fx := make([]complex128, len(x))
	fy := make([]complex128, len(x))
	fz := make([]complex128, len(x))
	for _, pair := range []struct {
		in  []complex128
		out []complex128
	}{{x, fx}, {y, fy}, {z, fz}} {
		if err := p.Transform(pair.out, pair.in, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fz {
		fx[i] = a*fx[i] + fy[i]
	}
	if d := cvec.MaxDiff(cvec.Vec(fz), cvec.Vec(fx)); d > tol*float64(k*n*m) {
		t.Fatalf("linearity violated: %g", d)
	}
}

func benchStrategy(b *testing.B, opts core.Config, k, n, m int) {
	p, err := NewPlan(k, n, m, opts)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(1, k*n*m)
	y := make([]complex128, k*n*m)
	b.SetBytes(int64(k * n * m * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompositions(b *testing.B) {
	const k, n, m = 64, 64, 64
	b.Run("pencil", func(b *testing.B) {
		benchStrategy(b, core.Config{Strategy: core.Pencil, Workers: 2}, k, n, m)
	})
	b.Run("slab", func(b *testing.B) {
		benchStrategy(b, core.Config{Strategy: core.Slab, Workers: 2}, k, n, m)
	})
	b.Run("doublebuf", func(b *testing.B) {
		benchStrategy(b, core.Config{Strategy: core.DoubleBuf, DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 14}, k, n, m)
	})
}

func BenchmarkBufferSweep(b *testing.B) {
	const k, n, m = 64, 64, 64
	for _, be := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		name := map[int]string{1 << 10: "b1Ki", 1 << 12: "b4Ki", 1 << 14: "b16Ki", 1 << 16: "b64Ki"}[be]
		b.Run(name, func(b *testing.B) {
			benchStrategy(b, core.Config{Strategy: core.DoubleBuf, BufferElems: be}, k, n, m)
		})
	}
}

func BenchmarkThreadMix(b *testing.B) {
	const k, n, m = 64, 64, 64
	for _, c := range []struct {
		name   string
		pd, pc int
	}{{"1d1c", 1, 1}, {"1d3c", 1, 3}, {"2d2c", 2, 2}, {"3d1c", 3, 1}} {
		b.Run(c.name, func(b *testing.B) {
			benchStrategy(b, core.Config{
				Strategy: core.DoubleBuf, DataWorkers: c.pd, ComputeWorkers: c.pc,
				BufferElems: 1 << 14,
			}, k, n, m)
		})
	}
}
