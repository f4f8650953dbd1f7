package fft3d

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

// refDFT3D computes the 3D DFT via the SPL formula semantics.
func refDFT3D(k, n, m int, x []complex128, sign int) []complex128 {
	f := spl.DFT3D(k, n, m)
	if sign == fft1d.Inverse {
		f = spl.Compose(spl.Kron(spl.IDFT(k), spl.I(n*m)), spl.KronAll(spl.I(k), spl.IDFT(n), spl.I(m)),
			spl.Kron(spl.I(k*n), spl.IDFT(m)))
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
	for _, c := range []struct{ k, n, m int }{{1, 1, 1}, {2, 2, 2}, {2, 4, 8}, {4, 2, 4}, {3, 2, 5}} {
		x := randVec(int64(c.k*c.n*c.m), c.k*c.n*c.m)
		for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
			got := refDFT3D(c.k, c.n, c.m, x, sign)
			want := naiveDFT(x, sign, c.k, c.n, c.m)
			if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(len(x)) {
				t.Errorf("reference %dx%dx%d sign=%d: diff %g", c.k, c.n, c.m, sign, d)
			}
		}
	}
}

func doubleBufCase(t *testing.T, k, n, m int, opts core.Config, sign int) {
	t.Helper()
	p, err := NewPlan(k, n, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(int64(k*100+n*10+m+sign), k*n*m)
	want := refDFT3D(k, n, m, x, sign)
	got := make([]complex128, len(x))
	if err := p.Transform(got, x, sign); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(k*n*m) {
		t.Errorf("%dx%dx%d (opts %+v): diff %g", k, n, m, opts, d)
	}
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
		// Default μ and b down to a single element.
		{1, 1, 1, 0, 0, 1, 1}, {2, 2, 2, 0, 0, 1, 1}, {2, 4, 8, 0, 0, 1, 1},
		{4, 2, 4, 0, 0, 1, 1}, {3, 2, 5, 0, 0, 1, 1},
	} {
		doubleBufCase(t, c.k, c.n, c.m, core.Config{
			Mu: c.mu, BufferElems: c.b,
			DataWorkers: c.pd, ComputeWorkers: c.pc,
		}, fft1d.Forward)
	}
}

func TestDoubleBufInverseAndRoundTrip(t *testing.T) {
	doubleBufCase(t, 8, 8, 8, core.Config{DataWorkers: 2, ComputeWorkers: 2}, fft1d.Inverse)
	doubleBufCase(t, 8, 8, 8, core.Config{}, fft1d.Inverse)

	const k, n, m = 16, 16, 16
	p, err := NewPlan(k, n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
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
	x := randVec(66, k*n*m)
	want := refDFT3D(k, n, m, x, fft1d.Forward)
	p, err := NewPlan(k, n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := p.InPlace(got, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(k*n*m) {
		t.Errorf("InPlace: diff %g", d)
	}
}

func TestNonCubicSizes(t *testing.T) {
	// The paper's Fig. 1 sweeps non-cubic 2^k×2^n×2^m shapes.
	for _, c := range []struct{ k, n, m int }{
		{4, 8, 16}, {16, 8, 4}, {8, 16, 4}, {32, 4, 8},
	} {
		doubleBufCase(t, c.k, c.n, c.m, core.Config{
			DataWorkers: 2, ComputeWorkers: 2, BufferElems: 128,
		}, fft1d.Forward)
	}
}

func TestStageIters(t *testing.T) {
	p, err := NewPlan(8, 8, 8, core.Config{Mu: 4, BufferElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	it := p.Iters()
	s1, s2, s3 := it[0], it[1], it[2]
	// Capacity alone would allow 64/8 = 8 rows per stage-1 block (8 iters),
	// but the pipeline-depth floor caps blocks at 64/minStageIters = 7
	// units, rounded down to the divisor 4 — 16 iterations per stage.
	// Stages 2 and 3 (extent mb·k = 16) land on 16/9 → 1-unit blocks.
	if s1 != 16 || s2 != 16 || s3 != 16 {
		t.Fatalf("Iters = %v, want [16 16 16]", it)
	}
}

func TestDoubleBufScheduleTrace(t *testing.T) {
	tr := trace.New()
	p, err := NewPlan(8, 8, 8, core.Config{
		Mu: 4, BufferElems: 128,
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
	if _, err := NewPlan(4, 4, 6, core.Config{Mu: 4}); err == nil {
		t.Error("accepted μ∤m")
	}
	p, _ := NewPlan(4, 4, 4, core.Config{})
	if err := p.Transform(make([]complex128, 63), make([]complex128, 64), fft1d.Forward); err == nil {
		t.Error("accepted bad lengths")
	}
	if err := p.InPlace(make([]complex128, 63), fft1d.Forward); err == nil {
		t.Error("accepted bad InPlace length")
	}
	if d := p.Dims(); len(d) != 3 || d[0] != 4 || d[1] != 4 || d[2] != 4 {
		t.Error("Dims wrong")
	}
	if p.Len() != 64 {
		t.Error("Len wrong")
	}
}

// Property: linearity of the full 3D transform through the DoubleBuf path.
func TestDoubleBufLinearity(t *testing.T) {
	const k, n, m = 8, 8, 8
	p, err := NewPlan(k, n, m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
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

func benchPlan(b *testing.B, opts core.Config, k, n, m int) {
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

func BenchmarkBufferSweep(b *testing.B) {
	const k, n, m = 64, 64, 64
	for _, be := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		name := map[int]string{1 << 10: "b1Ki", 1 << 12: "b4Ki", 1 << 14: "b16Ki", 1 << 16: "b64Ki"}[be]
		b.Run(name, func(b *testing.B) {
			benchPlan(b, core.Config{BufferElems: be}, k, n, m)
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
			benchPlan(b, core.Config{
				DataWorkers: c.pd, ComputeWorkers: c.pc,
				BufferElems: 1 << 14,
			}, k, n, m)
		})
	}
}
