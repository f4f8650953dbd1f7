package rfft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/kernels"
	"repro/internal/spl"
	"repro/internal/stagegraph"
)

const tol = 1e-10

func randReal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func asComplex(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return c
}

func TestForward1DMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 16, 64, 100, 256} {
		p, err := NewPlan1D(n, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		x := randReal(int64(n), n)
		want := kernels.NaiveDFT(asComplex(x), kernels.Forward)
		got := make([]complex128, p.SpectrumLen())
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n/2; k++ {
			if d := cvec.MaxDiff(cvec.Vec{got[k]}, cvec.Vec{want[k]}); d > tol*float64(n) {
				t.Errorf("n=%d k=%d: got %v want %v", n, k, got[k], want[k])
			}
		}
		p.Close()
	}
}

func TestForwardBatch1DMatchesNaive(t *testing.T) {
	const n, count = 24, 5
	p, err := NewPlan1D(n, core.Config{DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(3, count*n)
	got := make([]complex128, count*p.SpectrumLen())
	if err := p.ForwardBatch(got, x, count); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < count; r++ {
		want := kernels.NaiveDFT(asComplex(x[r*n:(r+1)*n]), kernels.Forward)
		for k := 0; k <= n/2; k++ {
			g := got[r*p.SpectrumLen()+k]
			if d := cvec.MaxDiff(cvec.Vec{g}, cvec.Vec{want[k]}); d > tol*float64(n) {
				t.Errorf("row %d k=%d: got %v want %v", r, k, g, want[k])
			}
		}
	}
}

func TestHermitianEndpointsReal(t *testing.T) {
	p, _ := NewPlan1D(32, core.Config{})
	defer p.Close()
	x := randReal(9, 32)
	spec := make([]complex128, p.SpectrumLen())
	if err := p.Forward(spec, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(spec[0])) > tol || math.Abs(imag(spec[16])) > tol {
		t.Fatalf("DC/Nyquist not real: %v %v", spec[0], spec[16])
	}
}

func TestRoundTrip1D(t *testing.T) {
	for _, n := range []int{2, 4, 10, 32, 128, 250} {
		p, err := NewPlan1D(n, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		x := randReal(int64(n+1), n)
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, n)
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("n=%d: round trip off at %d: %v vs %v", n, i, back[i], x[i])
			}
		}
		p.Close()
	}
}

func TestRoundTrip1DBatch(t *testing.T) {
	const n, count = 40, 7
	p, err := NewPlan1D(n, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(11, count*n)
	spec := make([]complex128, count*p.SpectrumLen())
	if err := p.ForwardBatch(spec, x, count); err != nil {
		t.Fatal(err)
	}
	back := make([]float64, count*n)
	if err := p.InverseBatch(back, spec, count); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(back[i]-x[i]) > tol {
			t.Fatalf("round trip off at %d: %v vs %v", i, back[i], x[i])
		}
	}
}

// TestInverseForcesSelfConjugateBins is the regression test for the old
// Plan1D.Inverse doc-vs-behaviour mismatch: the imaginary parts of the DC
// and Nyquist bins are documented as forced to zero, so an inverse of a
// spectrum with dirt in them must produce exactly the same real signal as
// the clean spectrum — in every rank, and without modifying src.
func TestInverseForcesSelfConjugateBins(t *testing.T) {
	t.Run("1D", func(t *testing.T) {
		const n = 48
		p, _ := NewPlan1D(n, core.Config{})
		defer p.Close()
		x := randReal(21, n)
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		dirty := append([]complex128(nil), spec...)
		dirty[0] += complex(0, 3.5)
		dirty[n/2] += complex(0, -1.25)
		saved := append([]complex128(nil), dirty...)
		clean := make([]float64, n)
		got := make([]float64, n)
		if err := p.Inverse(clean, spec); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(got, dirty); err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if clean[i] != got[i] {
				t.Fatalf("dirty DC/Nyquist leaked into output at %d: %v vs %v", i, got[i], clean[i])
			}
		}
		for i := range dirty {
			if dirty[i] != saved[i] {
				t.Fatalf("Inverse modified src at %d", i)
			}
		}
	})
	t.Run("2D", func(t *testing.T) {
		const n, m = 6, 8
		p, _ := NewPlan2D(n, m, core.Config{})
		defer p.Close()
		x := randReal(22, p.RealLen())
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		mc := m/2 + 1
		dirty := append([]complex128(nil), spec...)
		// The four self-conjugate bins of an even×even grid.
		for _, ky := range []int{0, n / 2} {
			for _, kx := range []int{0, m / 2} {
				dirty[ky*mc+kx] += complex(0, 2.25)
			}
		}
		clean := make([]float64, p.RealLen())
		got := make([]float64, p.RealLen())
		if err := p.Inverse(clean, spec); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(got, dirty); err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if clean[i] != got[i] {
				t.Fatalf("dirty self-conjugate bins leaked at %d: %v vs %v", i, got[i], clean[i])
			}
		}
	})
	t.Run("3D", func(t *testing.T) {
		const k, n, m = 4, 6, 8
		p, _ := NewPlan3D(k, n, m, core.Config{})
		defer p.Close()
		x := randReal(23, p.RealLen())
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		mc := m/2 + 1
		dirty := append([]complex128(nil), spec...)
		for _, kz := range []int{0, k / 2} {
			for _, ky := range []int{0, n / 2} {
				for _, kx := range []int{0, m / 2} {
					dirty[(kz*n+ky)*mc+kx] += complex(0, -4.75)
				}
			}
		}
		clean := make([]float64, p.RealLen())
		got := make([]float64, p.RealLen())
		if err := p.Inverse(clean, spec); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(got, dirty); err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if clean[i] != got[i] {
				t.Fatalf("dirty self-conjugate bins leaked at %d: %v vs %v", i, got[i], clean[i])
			}
		}
	})
}

func TestPlan1DValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7} {
		if _, err := NewPlan1D(n, core.Config{}); err == nil {
			t.Errorf("accepted n=%d", n)
		}
	}
	p, _ := NewPlan1D(8, core.Config{})
	defer p.Close()
	if p.N() != 8 || p.SpectrumLen() != 5 {
		t.Fatal("metadata wrong")
	}
	if err := p.Forward(make([]complex128, 4), make([]float64, 8)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.Inverse(make([]float64, 7), make([]complex128, 5)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.ForwardBatch(make([]complex128, 5), make([]float64, 8), 0); err == nil {
		t.Error("accepted count=0")
	}
}

func TestPlanClosedRejects(t *testing.T) {
	p, _ := NewPlan1D(8, core.Config{})
	p.Close()
	p.Close() // idempotent
	if err := p.Forward(make([]complex128, 5), make([]float64, 8)); err == nil {
		t.Error("closed plan accepted Forward")
	}
	p2, _ := NewPlan2D(2, 4, core.Config{})
	p2.Close()
	if err := p2.Forward(make([]complex128, 6), make([]float64, 8)); err == nil {
		t.Error("closed 2D plan accepted Forward")
	}
}

func TestForward3DMatchesComplexReference(t *testing.T) {
	const k, n, m = 4, 6, 8
	p, err := NewPlan3D(k, n, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(5, k*n*m)
	full := spl.Eval(spl.DFT3D(k, n, m), asComplex(x))
	got := make([]complex128, p.SpectrumLen())
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	mc := m/2 + 1
	for z := 0; z < k; z++ {
		for y := 0; y < n; y++ {
			for xx := 0; xx < mc; xx++ {
				g := got[(z*n+y)*mc+xx]
				w := full[(z*n+y)*m+xx]
				if d := cvec.MaxDiff(cvec.Vec{g}, cvec.Vec{w}); d > tol*float64(k*n*m) {
					t.Fatalf("(%d,%d,%d): got %v want %v", z, y, xx, g, w)
				}
			}
		}
	}
}

func TestRoundTrip3D(t *testing.T) {
	for _, c := range []struct{ k, n, m int }{
		{1, 1, 2}, {2, 3, 4}, {4, 4, 8}, {8, 8, 16}, {3, 5, 6},
	} {
		p, err := NewPlan3D(c.k, c.n, c.m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		x := randReal(int64(c.k+c.n+c.m), p.RealLen())
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, p.RealLen())
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("%dx%dx%d: round trip off at %d", c.k, c.n, c.m, i)
			}
		}
		p.Close()
	}
}

func TestPlan3DValidation(t *testing.T) {
	if _, err := NewPlan3D(0, 4, 4, core.Config{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewPlan3D(4, 4, 7, core.Config{}); err == nil {
		t.Error("accepted odd m")
	}
	p, _ := NewPlan3D(2, 2, 4, core.Config{})
	defer p.Close()
	if p.SpectrumLen() != 2*2*3 || p.RealLen() != 16 {
		t.Fatal("lengths wrong")
	}
	if k, n, m := p.Dims(); k != 2 || n != 2 || m != 4 {
		t.Fatal("Dims wrong")
	}
	if err := p.Forward(make([]complex128, 11), make([]float64, 16)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.Inverse(make([]float64, 15), make([]complex128, 12)); err == nil {
		t.Error("accepted short dst")
	}
}

// Property: spectrum of a real even sequence is real.
func TestRealEvenSpectrumReal(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(77))
	x := make([]float64, n)
	x[0] = rng.Float64()
	x[n/2] = rng.Float64()
	for i := 1; i < n/2; i++ {
		v := rng.Float64()
		x[i] = v
		x[n-i] = v
	}
	p, _ := NewPlan1D(n, core.Config{})
	defer p.Close()
	spec := make([]complex128, p.SpectrumLen())
	if err := p.Forward(spec, x); err != nil {
		t.Fatal(err)
	}
	for k, c := range spec {
		if math.Abs(imag(c)) > 1e-10 {
			t.Fatalf("even sequence spectrum has imag %g at %d", imag(c), k)
		}
	}
}

func TestForward2DMatchesComplexReference(t *testing.T) {
	const n, m = 6, 8
	p, err := NewPlan2D(n, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(15, n*m)
	full := spl.Eval(spl.DFT2D(n, m), asComplex(x))
	got := make([]complex128, p.SpectrumLen())
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	mc := m/2 + 1
	for y := 0; y < n; y++ {
		for xx := 0; xx < mc; xx++ {
			g := got[y*mc+xx]
			w := full[y*m+xx]
			if d := cvec.MaxDiff(cvec.Vec{g}, cvec.Vec{w}); d > tol*float64(n*m) {
				t.Fatalf("(%d,%d): got %v want %v", y, xx, g, w)
			}
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 2}, {3, 4}, {8, 16}, {5, 6}} {
		p, err := NewPlan2D(c.n, c.m, core.Config{DataWorkers: 2, ComputeWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		x := randReal(int64(c.n*c.m), p.RealLen())
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, p.RealLen())
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("%dx%d: round trip off at %d", c.n, c.m, i)
			}
		}
		p.Close()
	}
}

func TestPlan2DValidation(t *testing.T) {
	if _, err := NewPlan2D(0, 4, core.Config{}); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPlan2D(4, 3, core.Config{}); err == nil {
		t.Error("accepted odd m")
	}
	p, _ := NewPlan2D(2, 4, core.Config{})
	defer p.Close()
	if n, m := p.Dims(); n != 2 || m != 4 {
		t.Error("Dims wrong")
	}
	if err := p.Forward(make([]complex128, 5), make([]float64, 8)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.Inverse(make([]float64, 7), make([]complex128, 6)); err == nil {
		t.Error("accepted short dst")
	}
}

// TestRandomShapesAgainstPaddedComplexOracle is the property sweep of the
// whole stack: random even shapes, both directions, every rank, several μ
// and buffer configurations, all compared against the dense padded complex
// transform (forward) and the original signal (round trip).
func TestRandomShapesAgainstPaddedComplexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	evens := []int{2, 4, 6, 8, 10, 12, 16}
	anys := []int{1, 2, 3, 4, 5, 6, 8}
	optPool := []struct {
		cfg core.Config
		ab  stagegraph.Ablation
	}{
		{},
		{cfg: core.Config{Mu: 2, BufferElems: 64}},
		{cfg: core.Config{Mu: 8, DataWorkers: 2, ComputeWorkers: 2}},
		{cfg: core.Config{BufferElems: 32}, ab: stagegraph.Ablation{Unfused: true}},
	}
	checkFwd := func(got, full []complex128, stride, m, rows int) {
		t.Helper()
		mc := m/2 + 1
		for r := 0; r < rows; r++ {
			for xx := 0; xx < mc; xx++ {
				g := got[r*mc+xx]
				w := full[r*m+xx]
				if d := cvec.MaxDiff(cvec.Vec{g}, cvec.Vec{w}); d > tol*float64(rows*m) {
					t.Fatalf("row %d kx %d: got %v want %v", r, xx, g, w)
				}
			}
		}
	}
	for trial := 0; trial < 12; trial++ {
		o := optPool[rng.Intn(len(optPool))]
		opts := o.cfg
		// Each trial installs its own ablation; the deferred restores unwind
		// to none when the test returns.
		defer stagegraph.SetAblation(o.ab)()
		m := evens[rng.Intn(len(evens))]
		switch trial % 3 {
		case 0: // 1D
			n := m * (1 + rng.Intn(3)) // still even
			p, err := NewPlan1D(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := randReal(int64(trial), n)
			got := make([]complex128, p.SpectrumLen())
			if err := p.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			checkFwd(got, kernels.NaiveDFT(asComplex(x), kernels.Forward), 0, n, 1)
			back := make([]float64, n)
			if err := p.Inverse(back, got); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(back[i]-x[i]) > tol {
					t.Fatalf("trial %d 1D n=%d: round trip off at %d", trial, n, i)
				}
			}
			p.Close()
		case 1: // 2D
			n := anys[rng.Intn(len(anys))]
			p, err := NewPlan2D(n, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := randReal(int64(trial), n*m)
			got := make([]complex128, p.SpectrumLen())
			if err := p.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			checkFwd(got, spl.Eval(spl.DFT2D(n, m), asComplex(x)), 0, m, n)
			back := make([]float64, n*m)
			if err := p.Inverse(back, got); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(back[i]-x[i]) > tol {
					t.Fatalf("trial %d 2D %dx%d: round trip off at %d", trial, n, m, i)
				}
			}
			p.Close()
		default: // 3D
			k := anys[rng.Intn(len(anys))]
			n := anys[rng.Intn(len(anys))]
			p, err := NewPlan3D(k, n, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := randReal(int64(trial), k*n*m)
			got := make([]complex128, p.SpectrumLen())
			if err := p.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			checkFwd(got, spl.Eval(spl.DFT3D(k, n, m), asComplex(x)), 0, m, k*n)
			back := make([]float64, k*n*m)
			if err := p.Inverse(back, got); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(back[i]-x[i]) > tol {
					t.Fatalf("trial %d 3D %dx%dx%d: round trip off at %d", trial, k, n, m, i)
				}
			}
			p.Close()
		}
	}
}

// TestObservabilityRealBytesExact pins the telemetry contract: a fresh 2D
// plan's forward row stage loads exactly 8 B per real element per run, and
// the inverse row stage stores the same — the fused pack/unpack accounts
// real traffic at half the complex rate, with no rounding.
func TestObservabilityRealBytesExact(t *testing.T) {
	const n, m, runs = 8, 32, 3
	p, err := NewPlan2D(n, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := randReal(31, p.RealLen())
	spec := make([]complex128, p.SpectrumLen())
	back := make([]float64, p.RealLen())
	for r := 0; r < runs; r++ {
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
	}
	fsnap := p.ObsForward().Snapshot()
	if fsnap.Runs != runs {
		t.Fatalf("forward runs = %d, want %d", fsnap.Runs, runs)
	}
	wantReal := uint64(runs * n * m * 8)
	if got := fsnap.Stages[0].Load.Bytes; got != wantReal {
		t.Errorf("forward rows load bytes = %d, want exactly %d (8 B/real elem)", got, wantReal)
	}
	// The column stage streams the n×l packed complex grid: 16 B/elem.
	wantCols := uint64(runs * n * (m / 2) * 16)
	if got := fsnap.Stages[1].Store.Bytes; got != wantCols {
		t.Errorf("forward cols store bytes = %d, want exactly %d", got, wantCols)
	}
	isnap := p.ObsInverse().Snapshot()
	last := len(isnap.Stages) - 1
	if got := isnap.Stages[last].Store.Bytes; got != wantReal {
		t.Errorf("inverse rows store bytes = %d, want exactly %d (8 B/real elem)", got, wantReal)
	}
	// The entangle stage loads the full n×(m/2+1) spectrum at 16 B/elem.
	wantEnt := uint64(runs * n * (m/2 + 1) * 16)
	if got := isnap.Stages[0].Load.Bytes; got != wantEnt {
		t.Errorf("entangle load bytes = %d, want exactly %d", got, wantEnt)
	}
	merged := p.Observability()
	if merged.Runs != 2*runs {
		t.Errorf("merged runs = %d, want %d", merged.Runs, 2*runs)
	}
	if len(merged.Stages) != len(fsnap.Stages)+len(isnap.Stages) {
		t.Errorf("merged stage list not concatenated")
	}
}

func TestDescribeGraphMentionsBothDirections(t *testing.T) {
	p, _ := NewPlan3D(4, 4, 8, core.Config{})
	defer p.Close()
	s := p.DescribeGraph()
	for _, want := range []string{"x-rows", "y-pencils", "z-pencils", "entangle", "ix-rows"} {
		if !contains(s, want) {
			t.Errorf("DescribeGraph missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkRFFT1DForward(b *testing.B) {
	const n = 4096
	p, _ := NewPlan1D(n, core.Config{})
	defer p.Close()
	x := randReal(1, n)
	dst := make([]complex128, p.SpectrumLen())
	b.SetBytes(int64(n * 8))
	for i := 0; i < b.N; i++ {
		if err := p.Forward(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFFT2DForward(b *testing.B) {
	const n, m = 256, 256
	p, _ := NewPlan2D(n, m, core.Config{})
	defer p.Close()
	x := randReal(1, p.RealLen())
	dst := make([]complex128, p.SpectrumLen())
	b.SetBytes(int64(p.RealLen() * 8))
	for i := 0; i < b.N; i++ {
		if err := p.Forward(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFFT3DForward(b *testing.B) {
	const k, n, m = 32, 32, 32
	p, _ := NewPlan3D(k, n, m, core.Config{})
	defer p.Close()
	x := randReal(1, p.RealLen())
	dst := make([]complex128, p.SpectrumLen())
	b.SetBytes(int64(p.RealLen() * 8))
	for i := 0; i < b.N; i++ {
		if err := p.Forward(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}
