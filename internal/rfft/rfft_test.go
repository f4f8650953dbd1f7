package rfft

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
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
		p, err := NewPlan(core.Config{}, n)
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
	p, err := NewPlan(core.Config{DataWorkers: 2, ComputeWorkers: 2}, n)
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
	p, _ := NewPlan(core.Config{}, 32)
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
		p, err := NewPlan(core.Config{}, n)
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
	p, err := NewPlan(core.Config{}, n)
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
		p, _ := NewPlan(core.Config{}, n)
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
		p, _ := NewPlan(core.Config{}, n, m)
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
		p, _ := NewPlan(core.Config{}, k, n, m)
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

// TestPlanValidation holds every rank to its size checks, its accessors and
// its length checks; only a rank-1 plan batches.
func TestPlanValidation(t *testing.T) {
	for _, c := range []struct {
		name                string
		bad                 [][]int // extents NewPlan refuses
		dims                []int   // a valid plan
		realLen, specLen    int
		shortDst, shortBack int // a forward dst and an inverse dst one element short
	}{
		{"rank1", [][]int{{0}, {1}, {3}, {7}}, []int{8}, 8, 5, 4, 7},
		{"rank2", [][]int{{0, 4}, {4, 3}}, []int{2, 4}, 8, 6, 5, 7},
		{"rank3", [][]int{{0, 4, 4}, {4, 4, 7}}, []int{2, 2, 4}, 16, 12, 11, 15},
		{"rank0and4", [][]int{{}, {2, 2, 2, 2}}, nil, 0, 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, dims := range c.bad {
				if _, err := NewPlan(core.Config{}, dims...); err == nil {
					t.Errorf("accepted %v", dims)
				}
			}
			if c.dims == nil {
				return
			}
			p, err := NewPlan(core.Config{}, c.dims...)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if !slices.Equal(p.Dims(), c.dims) || p.RealLen() != c.realLen || p.SpectrumLen() != c.specLen {
				t.Fatalf("Dims %v RealLen %d SpectrumLen %d, want %v %d %d",
					p.Dims(), p.RealLen(), p.SpectrumLen(), c.dims, c.realLen, c.specLen)
			}
			if err := p.Forward(make([]complex128, c.shortDst), make([]float64, c.realLen)); err == nil {
				t.Error("accepted short dst")
			}
			if err := p.Inverse(make([]float64, c.shortBack), make([]complex128, c.specLen)); err == nil {
				t.Error("accepted short dst")
			}
			if err := p.ForwardBatch(make([]complex128, c.specLen), make([]float64, c.realLen), 0); err == nil {
				t.Error("accepted count=0")
			}
			batches := len(c.dims) == 1
			err = p.ForwardBatch(make([]complex128, 2*c.specLen), make([]float64, 2*c.realLen), 2)
			if (err == nil) != batches {
				t.Errorf("ForwardBatch of 2 grids returned %v", err)
			}
			err = p.InverseBatch(make([]float64, 2*c.realLen), make([]complex128, 2*c.specLen), 2)
			if (err == nil) != batches {
				t.Errorf("InverseBatch of 2 grids returned %v", err)
			}
		})
	}
}

func TestPlanClosedRejects(t *testing.T) {
	p, _ := NewPlan(core.Config{}, 8)
	p.Close()
	p.Close() // idempotent
	if err := p.Forward(make([]complex128, 5), make([]float64, 8)); err == nil {
		t.Error("closed plan accepted Forward")
	}
	p2, _ := NewPlan(core.Config{}, 2, 4)
	p2.Close()
	if err := p2.Forward(make([]complex128, 6), make([]float64, 8)); err == nil {
		t.Error("closed 2D plan accepted Forward")
	}
}

func TestForward3DMatchesComplexReference(t *testing.T) {
	const k, n, m = 4, 6, 8
	p, err := NewPlan(core.Config{}, k, n, m)
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
		p, err := NewPlan(core.Config{DataWorkers: 2, ComputeWorkers: 2}, c.k, c.n, c.m)
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
	p, _ := NewPlan(core.Config{}, n)
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
	p, err := NewPlan(core.Config{}, n, m)
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
		p, err := NewPlan(core.Config{DataWorkers: 2, ComputeWorkers: 2}, c.n, c.m)
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

// At the default configuration the interior stages of a real graph fold
// their trailing radix-4 butterfly into the store: the 16-row cols of
// 16×32, and the y- and z-pencils of 16×32×64, whose forward z store writes
// the pitched spectrum and whose inverse pencils carry their 1/n in the fold
// store. Each direction runs with its own sign from the call, and both are
// held to the complex oracle.
func TestFoldedRealStagesMatchOracle(t *testing.T) {
	for _, dims := range [][]int{{16, 32}, {16, 32, 64}} {
		f := spl.DFT2D(dims[0], dims[1])
		if len(dims) == 3 {
			f = spl.DFT3D(dims[0], dims[1], dims[2])
		}
		p, err := NewPlan(core.Config{}, dims...)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// Every stage but the rows folds, in both directions.
		if got, want := strings.Count(p.DescribeGraph(), "radix-4 fold"), 2*(len(dims)-1); got != want {
			t.Fatalf("%v: %d folded stages, want %d:\n%s", dims, got, want, p.DescribeGraph())
		}
		x := randReal(int64(len(dims)), p.RealLen())
		full := spl.Eval(f, asComplex(x))
		spec := make([]complex128, p.SpectrumLen())
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		m := dims[len(dims)-1]
		mc := m/2 + 1
		for i, g := range spec {
			if w := full[i/mc*m+i%mc]; cvec.MaxDiff(cvec.Vec{g}, cvec.Vec{w}) > tol*float64(len(x)) {
				t.Fatalf("%v forward: row %d kx %d: got %v want %v", dims, i/mc, i%mc, g, w)
			}
		}
		back := make([]float64, len(x))
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("%v: round trip off at %d: %v, want %v", dims, i, back[i], x[i])
			}
		}
	}
}

// The DC/Nyquist pass does not depend on the rank: an n×m plan and the
// 1×n×m plan run the same pencil transforms, so their forward spectra and
// their inverses of one spectrum agree bit for bit — including the sign of
// the zero imaginary parts at the self-conjugate rows.
func TestSplitDCIsRankFree(t *testing.T) {
	for _, s := range [][2]int{{64, 128}, {48, 96}, {20, 60}, {7, 10}} {
		n, m := s[0], s[1]
		p2, err := NewPlan(core.Config{}, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		p3, err := NewPlan(core.Config{}, 1, n, m)
		if err != nil {
			t.Fatal(err)
		}
		defer p3.Close()
		x := randReal(int64(n*m), n*m)
		specs := [2][]complex128{make([]complex128, p2.SpectrumLen()), make([]complex128, p3.SpectrumLen())}
		backs := [2][]float64{make([]float64, n*m), make([]float64, n*m)}
		for i, p := range []*Plan{p2, p3} {
			if err := p.Forward(specs[i], x); err != nil {
				t.Fatal(err)
			}
			if err := p.Inverse(backs[i], specs[0]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range specs[0] {
			a, b := specs[0][i], specs[1][i]
			if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
				t.Errorf("%dx%d forward: bin %d is %v at rank 2, %v at rank 3", n, m, i, a, b)
			}
		}
		for i := range backs[0] {
			if math.Float64bits(backs[0][i]) != math.Float64bits(backs[1][i]) {
				t.Errorf("%dx%d inverse: element %d is %v at rank 2, %v at rank 3", n, m, i, backs[0][i], backs[1][i])
			}
		}
	}
}

// A run's Scale reaches every real graph once, wherever its last stage
// applies it: the 1D inverse's lone entangle stage, a compute leg, a fold
// store.
func TestRealGraphsApplyTheRunScale(t *testing.T) {
	p1, err1 := NewPlan(core.Config{}, 32)
	p2, err2 := NewPlan(core.Config{}, 16, 32)
	p3, err3 := NewPlan(core.Config{}, 8, 8, 16)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*Plan{p1, p2, p3} {
		defer p.Close()
		realN, specN := p.RealLen(), p.SpectrumLen()
		x := randReal(3, realN)
		spec := make([]complex128, specN)
		for i := range spec {
			spec[i] = complex(x[i%realN], x[(i+1)%realN])
		}
		var outs [2][]complex128
		var backs [2][]float64
		for i, scale := range []float64{0, 0.5} {
			outs[i], backs[i] = make([]complex128, specN), make([]float64, realN)
			err := p.run.Run(fwdGraph, stagegraph.Call{In: stagegraph.Endpoint{R: x},
				Out: stagegraph.Endpoint{C: outs[i]}, Sign: fft1d.Forward, Scale: scale, Count: 1})
			if err == nil {
				err = p.run.Run(invGraph, stagegraph.Call{In: stagegraph.Endpoint{C: spec},
					Out: stagegraph.Endpoint{R: backs[i]}, Sign: fft1d.Inverse, Scale: scale, Count: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range outs[0] {
			if outs[1][i] != outs[0][i]*0.5 {
				t.Fatalf("%d reals forward: scaled %v at %d, want %v", realN, outs[1][i], i, outs[0][i]*0.5)
			}
		}
		for i := range backs[0] {
			if backs[1][i] != backs[0][i]*0.5 {
				t.Fatalf("%d reals inverse: scaled %v at %d, want %v", realN, backs[1][i], i, backs[0][i]*0.5)
			}
		}
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
		{ab: stagegraph.Ablation{NoFold: true}},
		{ab: stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}},
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
			p, err := NewPlan(opts, n)
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
			p, err := NewPlan(opts, n, m)
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
			p, err := NewPlan(opts, k, n, m)
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
	p, err := NewPlan(core.Config{}, n, m)
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
	fsnap := p.run.Obs(fwdGraph).Snapshot()
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
	isnap := p.run.Obs(invGraph).Snapshot()
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
	p, _ := NewPlan(core.Config{}, 4, 4, 8)
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
	p, _ := NewPlan(core.Config{}, n)
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
	p, _ := NewPlan(core.Config{}, n, m)
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
	p, _ := NewPlan(core.Config{}, k, n, m)
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
