package fft3d

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/spl"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// refDFT3D computes the 3D DFT via the SPL formula semantics.
func refDFT3D(k, n, m int, x []complex128, sign int) []complex128 {
	f := spl.DFT3D(k, n, m)
	if sign == fft1d.Inverse {
		f = spl.Compose(spl.Kron(spl.IDFT(k), spl.I(n*m)), spl.KronAll(spl.I(k), spl.IDFT(n), spl.I(m)),
			spl.Kron(spl.I(k*n), spl.IDFT(m)))
	}
	return spl.Eval(f, x)
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

func case3D(t *testing.T, k, n, m int, opts Options, sign int) {
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

func TestPlan3DMatchesSPL(t *testing.T) {
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
		case3D(t, c.k, c.n, c.m, Options{
			Mu: c.mu, BufferElems: c.b,
			DataWorkers: c.pd, ComputeWorkers: c.pc,
		}, fft1d.Forward)
	}
}

func TestDoubleBufInverseAndRoundTrip(t *testing.T) {
	case3D(t, 8, 8, 8, Options{DataWorkers: 2, ComputeWorkers: 2}, fft1d.Inverse)
	case3D(t, 8, 8, 8, Options{}, fft1d.Inverse)

	const k, n, m = 16, 16, 16
	p, err := NewPlan(k, n, m, Options{DataWorkers: 2, ComputeWorkers: 2})
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
	p, err := NewPlan(k, n, m, Options{DataWorkers: 2, ComputeWorkers: 2})
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
		case3D(t, c.k, c.n, c.m, Options{
			DataWorkers: 2, ComputeWorkers: 2, BufferElems: 128,
		}, fft1d.Forward)
	}
}

func TestStageIters(t *testing.T) {
	p, err := NewPlan(8, 8, 8, Options{Mu: 4, BufferElems: 64})
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
	p, err := NewPlan(8, 8, 8, Options{
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
	if _, err := NewPlan(0, 4, 4, Options{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewPlan(4, 4, 6, Options{Mu: 4}); err == nil {
		t.Error("accepted μ∤m")
	}
	p, _ := NewPlan(4, 4, 4, Options{})
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
	p, err := NewPlan(k, n, m, Options{DataWorkers: 2, ComputeWorkers: 2})
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

func BenchmarkBufferSweep(b *testing.B) {
	const k, n, m = 64, 64, 64
	for _, be := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		name := map[int]string{1 << 10: "b1Ki", 1 << 12: "b4Ki", 1 << 14: "b16Ki", 1 << 16: "b64Ki"}[be]
		b.Run(name, func(b *testing.B) {
			benchPlan(b, Options{BufferElems: be}, k, n, m)
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
			benchPlan(b, Options{
				DataWorkers: c.pd, ComputeWorkers: c.pc,
				BufferElems: 1 << 14,
			}, k, n, m)
		})
	}
}

// The fused stage-graph schedule and the drain-between-stages baseline must
// be interchangeable on the 3D transform — including the interleaved
// array-reuse flow (src→dst, dst→work, work→dst), where fusion is only
// legal because stage 3's first store lands strictly after stage 2's last
// load of dst. Exercised across odd sizes, μ values and worker mixes;
// outputs must agree exactly and match the reference.
func TestFusionEquivalence(t *testing.T) {
	cases := []struct{ k, n, m, mu int }{
		{3, 5, 7, 1}, // odd everywhere forces μ=1
		{5, 3, 9, 3},
		{4, 6, 10, 2},
		{8, 8, 16, 4},
	}
	workers := [][2]int{{1, 1}, {2, 2}, {2, 3}}
	for _, c := range cases {
		for _, w := range workers {
			x := randVec(int64(c.k*100+c.n*10+c.m), c.k*c.n*c.m)
			want := refDFT3D(c.k, c.n, c.m, x, fft1d.Forward)
			var outs [2][]complex128
			for i, unfused := range []bool{false, true} {
				restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
				p, err := NewPlan(c.k, c.n, c.m, Options{
					Mu: c.mu, BufferElems: 64,
					DataWorkers: w[0], ComputeWorkers: w[1],
				})
				restore()
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = make([]complex128, len(x))
				if err := p.Transform(outs[i], x, fft1d.Forward); err != nil {
					t.Fatal(err)
				}
				if d := cvec.MaxDiff(cvec.Vec(outs[i]), cvec.Vec(want)); d > tol*float64(len(x)) {
					t.Errorf("%dx%dx%d μ=%d p=%v unfused=%v: diff vs reference %g",
						c.k, c.n, c.m, c.mu, w, unfused, d)
				}
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("%dx%dx%d μ=%d p=%v: fused/unfused outputs differ at %d",
						c.k, c.n, c.m, c.mu, w, i)
				}
			}
		}
	}
}

// Stats attribute the whole fused transform: 3 stages, one schedule, and a
// step saving of exactly S-1 = 2 over the unfused baseline.
func TestFusionStatsSteps(t *testing.T) {
	steps := func(unfused bool) int {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
		p, err := NewPlan(8, 8, 16, Options{Mu: 4, BufferElems: 128})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(5, p.Len())
		y := make([]complex128, len(x))
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Stages != 3 || st.Steps == 0 {
			t.Fatalf("unexpected stats %+v", st)
		}
		return st.Steps
	}
	if f, u := steps(false), steps(true); u-f != 2 {
		t.Fatalf("fused %d steps, unfused %d, want a saving of exactly 2", f, u)
	}
}

// Inverse is, bitwise, Transform(…, fft1d.Inverse) followed by
// fft1d.Scale(dst, 1/N) — whether the scale ran on the way out of the last
// stage's fold store (cached or streaming) or run-major streaming store, or
// in its compute leg (a plain unit-major store).
func TestInverseBitwiseEqualsTransformThenScale(t *testing.T) {
	shapes := []struct {
		k, n, m int
		fold    bool // the z stage folds (fold on): the scale rides its store
	}{
		{16, 16, 16, true},
		{8, 16, 32, false}, // k=8 is a single codelet: nothing to fold
		{16, 12, 8, true},  // N not a power of two: no pass over dst either
		{12, 16, 8, true},  // k=12 runs [3 4], whose trailing radix-4 folds
		{24, 16, 8, false}, // z does not fold (k=24 runs [3 8]): scale after the full DFT_k
		{6, 10, 12, false},
	}
	dbuf := Options{}
	variants := []struct {
		name string
		o    Options
		ab   stagegraph.Ablation
	}{
		{"default", dbuf, stagegraph.Ablation{}},
		{"unfused", dbuf, stagegraph.Ablation{Unfused: true}},
		{"nofold", dbuf, stagegraph.Ablation{NoFold: true}},
		{"mu4/radix8", Options{Mu: 4}, stagegraph.Ablation{Radix: 8}},
		{"streaming", dbuf, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}},
		{"workers2x2", Options{DataWorkers: 2, ComputeWorkers: 2}, stagegraph.Ablation{}},
	}
	for _, sh := range shapes {
		for _, v := range variants {
			o := v.o
			o.BufferElems = 1 << 9
			if o.Mu != 0 && sh.m%o.Mu != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%dx%dx%d/%s", sh.k, sh.n, sh.m, v.name), func(t *testing.T) {
				restore := stagegraph.SetAblation(v.ab)
				p, err := NewPlan(sh.k, sh.n, sh.m, o)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				inStore := p.ScalesInStore()
				switch v.name {
				case "default":
					if inStore != sh.fold {
						t.Errorf("scale in store = %v, want %v", inStore, sh.fold)
					}
				case "streaming":
					if want := sh.fold || layout.NonTemporalAvailable(); inStore != want {
						t.Errorf("scale in the store leg = %v, want %v", inStore, want)
					}
				case "nofold":
					if inStore {
						t.Error("an unfolded cached last stage always scales in stage")
					}
				}
				x := randVec(int64(sh.k*sh.n+sh.m), p.Len())
				want := make([]complex128, p.Len())
				if err := p.Transform(want, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(want, 1/float64(p.Len()))
				got := make([]complex128, p.Len())
				if err := p.Inverse(got, x); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, got, want)
				// The scale is per call: an unnormalized transform right
				// after must not inherit it.
				if err := p.Transform(got, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(got, 1/float64(p.Len()))
				requireSameBits(t, got, want)
			})
		}
	}
}

func TestInverseRejectsBadLengths(t *testing.T) {
	p, err := NewPlan(8, 8, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Inverse(make([]complex128, 10), make([]complex128, 512)); err == nil {
		t.Fatal("Inverse accepted a short dst")
	}
}

func TestTransformManyMatchesLoop(t *testing.T) {
	const k, n, m, count = 8, 8, 8, 4
	p, err := NewPlan(k, n, m, Options{BufferElems: 128})
	if err != nil {
		t.Fatal(err)
	}
	src := cvec.Random(rand.New(rand.NewSource(1)), count*p.Len())
	want := make([]complex128, len(src))
	for c := 0; c < count; c++ {
		if err := p.Transform(want[c*p.Len():(c+1)*p.Len()], src[c*p.Len():(c+1)*p.Len()], fft1d.Forward); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]complex128, len(src))
	if err := p.TransformMany(got, src, count, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-12 {
		t.Fatalf("TransformMany diff %g", d)
	}
}

func TestTransformManyValidation(t *testing.T) {
	p, err := NewPlan(4, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.TransformMany(make([]complex128, 64), make([]complex128, 64), 0, fft1d.Forward); err == nil {
		t.Error("accepted count=0")
	}
	if err := p.TransformMany(make([]complex128, 127), make([]complex128, 128), 2, fft1d.Forward); err == nil {
		t.Error("accepted bad lengths")
	}
}

func BenchmarkTransformMany(b *testing.B) {
	const k, n, m, count = 32, 32, 32, 4
	p, err := NewPlan(k, n, m, Options{BufferElems: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	src := cvec.Random(rand.New(rand.NewSource(1)), count*p.Len())
	dst := make([]complex128, len(src))
	b.SetBytes(int64(len(src) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.TransformMany(dst, src, count, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression for the μ default: the 64³ plan must pick μ=8 from the
// machine model, not the old hardcoded 4.
func TestDefaultMuFollowsMachineModel(t *testing.T) {
	cases := []struct{ k, n, m, want int }{
		{64, 64, 64, 8},
		{4, 8, 12, 4},
		{2, 4, 6, 2},
		{2, 2, 7, 1},
	}
	for _, c := range cases {
		p, err := NewPlan(c.k, c.n, c.m, Options{BufferElems: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if p.Mu() != c.want {
			t.Errorf("%dx%dx%d default μ = %d; want %d", c.k, c.n, c.m, p.Mu(), c.want)
		}
		p.Close()
	}
	p, err := NewPlan(8, 8, 8, Options{Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Mu() != 4 {
		t.Fatalf("explicit μ=4 overridden to %d", p.Mu())
	}
}

// Forced streaming stores must flag every stage, stay correct, and
// forced regular must flag none.
func TestStorePolicyWiringAndCorrectness(t *testing.T) {
	nt := 0
	if layout.NonTemporalAvailable() {
		nt = 3 // all three DoubleBuf stages
	}
	ntStages := func(policy stagegraph.StorePolicy) int {
		defer stagegraph.SetAblation(stagegraph.Ablation{Stores: policy})()
		p, err := NewPlan(16, 16, 16, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if policy == stagegraph.StoreNonTemporal {
			case3D(t, 16, 16, 16, Options{DataWorkers: 2,
				ComputeWorkers: 2}, fft1d.Forward)
			case3D(t, 8, 16, 32, Options{}, fft1d.Inverse)
		}
		return p.NonTemporalStages()
	}
	if got := ntStages(stagegraph.StoreNonTemporal); got != nt {
		t.Errorf("forced NT: %d NT stages; want %d", got, nt)
	}
	if got := ntStages(stagegraph.StoreRegular); got != 0 {
		t.Errorf("forced regular: %d NT stages; want 0", got)
	}
}
