package fft2d

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
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

// naiveDFT applies kernels.NaiveDFT along every axis of the row-major
// array x with extents dims (slowest first): a reference that shares no
// code with spl.
func naiveDFT(x []complex128, sign int, dims ...int) []complex128 {
	y := append([]complex128(nil), x...)
	stride := len(x)
	for _, d := range dims {
		stride /= d
		line := make([]complex128, d)
		for base := range y {
			if base/stride%d != 0 {
				continue
			}
			for i := range line {
				line[i] = y[base+i*stride]
			}
			for i, v := range kernels.NaiveDFT(line, sign) {
				y[base+i*stride] = v
			}
		}
	}
	return y
}

// The spl reference every test here compares against matches the DFT
// summed term by term along each axis, in both directions.
func TestReferenceMatchesSPL(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 1}, {2, 2}, {4, 8}, {8, 4}, {3, 5}, {16, 16}} {
		x := randVec(int64(c.n*c.m), c.n*c.m)
		for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
			got := refDFT2D(c.n, c.m, x, sign)
			want := naiveDFT(x, sign, c.n, c.m)
			if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(len(x)) {
				t.Errorf("reference %dx%d sign=%d: diff %g", c.n, c.m, sign, d)
			}
		}
	}
}

func doubleBufCase(t *testing.T, n, m, mu, bufElems, pd, pc int, sign int) {
	t.Helper()
	db, err := NewPlan(n, m, core.Config{
		Mu: mu, BufferElems: bufElems,
		DataWorkers: pd, ComputeWorkers: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(int64(n*m+mu+sign), n*m)
	want := refDFT2D(n, m, x, sign)
	got := make([]complex128, len(x))
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
		// Default μ and b down to a single element.
		{1, 1, 0, 0, 1, 1}, {2, 2, 0, 0, 1, 1}, {4, 8, 0, 0, 1, 1},
		{8, 4, 0, 0, 1, 1}, {3, 5, 0, 0, 1, 1}, {16, 16, 0, 0, 1, 1},
	} {
		doubleBufCase(t, c.n, c.m, c.mu, c.b, c.pd, c.pc, fft1d.Forward)
	}
}

func TestDoubleBufInverse(t *testing.T) {
	doubleBufCase(t, 32, 32, 4, 128, 2, 2, fft1d.Inverse)
}

func TestRoundTripThroughDoubleBuf(t *testing.T) {
	const n, m = 64, 64
	p, err := NewPlan(n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
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
	p, err := NewPlan(16, 32, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(0, 16*32)
	want := make([]complex128, len(x))
	if err := p.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
		t.Errorf("InPlace: diff %g", d)
	}
}

func TestDoubleBufScheduleIsTableII(t *testing.T) {
	tr := trace.New()
	p, err := NewPlan(32, 16, core.Config{
		Mu: 4, BufferElems: 64,
		DataWorkers: 2, ComputeWorkers: 2, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// BufferElems alone would allow 64/16 = 4 rows per block (8 iters), but
	// the pipeline-depth floor caps blocks at 32/minStageIters = 3 rows,
	// rounded down to the divisor 2 — 16 iterations per stage.
	if iters1 := p.Iters()[0]; iters1 != 16 {
		t.Fatalf("stage 1 runs %d iterations, want 16", iters1)
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
		Mu: 4, BufferElems: 64,
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
	if _, err := NewPlan(8, 6, core.Config{Mu: 4}); err == nil {
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

// A sign other than ±1 is refused: the compute kernels, the AVX2 fold and
// the generic fold each read such a sign as a different direction, so the
// output would depend on the kernel tier.
func TestTransformRefusesSignOutsideUnit(t *testing.T) {
	p, err := NewPlan(64, 64, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src, dst := randVec(1, 64*64), make([]complex128, 64*64)
	for _, sign := range []int{0, 2} {
		if err := p.Transform(dst, src, sign); err == nil {
			t.Errorf("sign %d accepted", sign)
		}
	}
}

func TestAllStrategiesAgreeLarger(t *testing.T) {
	const n, m = 128, 256
	x := randVec(123, n*m)
	want := refDFT2D(n, m, x, fft1d.Forward)
	p, err := NewPlan(n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2, BufferElems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(x))
	if err := p.Transform(got, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Errorf("doublebuf disagrees with reference: %g", d)
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

func Benchmark2DDoubleBuf(b *testing.B) {
	benchPlan(b, core.Config{DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 14})
}

func TestDoubleBufBufferSmallerThanRow(t *testing.T) {
	// The paper leaves "size of the 1D FFT equal or greater than the
	// shared buffer" as future work for the 2D case (§V). Our planner
	// handles it by degrading to one-row blocks (rows1 = 1), paying the
	// un-amortized panel cost the paper predicts but staying correct.
	const n, m = 8, 256
	p, err := NewPlan(n, m, core.Config{
		Mu: 4, BufferElems: 64, // b = 64 < m = 256
		DataWorkers: 2, ComputeWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if it := p.Iters()[0]; it != n {
		t.Fatalf("expected one-row blocks (iters=%d), got %d", n, it)
	}
	x := randVec(88, n*m)
	got := make([]complex128, n*m)
	if err := p.Transform(got, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	want := refDFT2D(n, m, x, fft1d.Forward)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Fatalf("b<m case wrong: %g", d)
	}
}
