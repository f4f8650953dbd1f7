package core

import (
	"fmt"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/spl"
	"repro/internal/stagegraph"
	"repro/internal/trace"
)

// refDFT2D computes the 2D DFT via the SPL formula semantics.
func refDFT2D(n, m int, x []complex128, sign int) []complex128 {
	f := spl.DFT2D(n, m)
	if sign == fft1d.Inverse {
		f = spl.Compose(spl.Kron(spl.IDFT(n), spl.I(m)), spl.Kron(spl.I(n), spl.IDFT(m)))
	}
	return spl.Eval(f, x)
}

// The spl reference every test here compares against matches the DFT
// summed term by term along each axis, in both directions.
func TestReferenceMatchesSPL2D(t *testing.T) {
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

func case2D(t *testing.T, n, m, mu, bufElems, pd, pc int, sign int) {
	t.Helper()
	db, err := NewPlan(Config{
		Mu: mu, BufferElems: bufElems,
		DataWorkers: pd, ComputeWorkers: pc,
	}, false, n, m)
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

func TestPlan2DMatchesSPL(t *testing.T) {
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
		case2D(t, c.n, c.m, c.mu, c.b, c.pd, c.pc, fft1d.Forward)
	}
}

func TestDoubleBufInverse(t *testing.T) {
	case2D(t, 32, 32, 4, 128, 2, 2, fft1d.Inverse)
}

func TestRoundTripThroughDoubleBuf(t *testing.T) {
	const n, m = 64, 64
	p, err := NewPlan(Config{DataWorkers: 2, ComputeWorkers: 2}, false, n, m)
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

func TestInPlace2D(t *testing.T) {
	p, err := NewPlan(Config{}, false, 16, 32)
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
	p, err := NewPlan(Config{
		Mu: 4, BufferElems: 64,
		DataWorkers: 2, ComputeWorkers: 2, Tracer: tr,
	}, false, 32, 16)
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
	p2, _ := NewPlan(Config{
		Mu: 4, BufferElems: 64,
		DataWorkers: 1, ComputeWorkers: 1, Tracer: tr2,
	}, false, 32, 16)
	_ = p2.Transform(y, x, fft1d.Forward)
	evs := tr2.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestValidation2D(t *testing.T) {
	if _, err := NewPlan(Config{}, false, 0, 4); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPlan(Config{}, false, 4, -1); err == nil {
		t.Error("accepted m=-1")
	}
	if _, err := NewPlan(Config{Mu: 4}, false, 8, 6); err == nil {
		t.Error("accepted μ that does not divide m")
	}
	p, _ := NewPlan(Config{}, false, 4, 4)
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
	p, err := NewPlan(Config{}, false, 64, 64)
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

func TestPlan2DMatchesSPLLarger(t *testing.T) {
	const n, m = 128, 256
	x := randVec(123, n*m)
	want := refDFT2D(n, m, x, fft1d.Forward)
	p, err := NewPlan(Config{DataWorkers: 2, ComputeWorkers: 2, BufferElems: 1 << 12}, false, n, m)
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

func Benchmark2DDoubleBuf(b *testing.B) {
	benchPlan(b, Config{DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 14}, 512, 512)
}

func TestDoubleBufBufferSmallerThanRow(t *testing.T) {
	// The paper leaves "size of the 1D FFT equal or greater than the
	// shared buffer" as future work for the 2D case (§V). Our planner
	// handles it by degrading to one-row blocks (rows1 = 1), paying the
	// un-amortized panel cost the paper predicts but staying correct.
	const n, m = 8, 256
	p, err := NewPlan(Config{
		Mu: 4, BufferElems: 64, // b = 64 < m = 256
		DataWorkers: 2, ComputeWorkers: 2,
	}, false, n, m)
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

// The fused stage-graph schedule and the drain-between-stages baseline must
// be interchangeable: every compute sees identical block contents in both,
// so the outputs agree exactly, and both match the reference — across odd
// sizes, μ values and worker mixes.
func TestFusionEquivalence2D(t *testing.T) {
	cases := []struct{ n, m, mu int }{
		{7, 9, 1},  // odd everywhere forces μ=1
		{5, 15, 3}, // odd with odd μ
		{9, 25, 5},
		{6, 20, 4},
		{16, 16, 4},
	}
	workers := [][2]int{{1, 1}, {2, 2}, {1, 3}}
	for _, c := range cases {
		for _, w := range workers {
			x := randVec(int64(c.n*c.m+c.mu), c.n*c.m)
			want := refDFT2D(c.n, c.m, x, fft1d.Forward)
			var outs [2][]complex128
			for i, unfused := range []bool{false, true} {
				restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
				p, err := NewPlan(Config{
					Mu: c.mu, BufferElems: 64,
					DataWorkers: w[0], ComputeWorkers: w[1],
				}, false, c.n, c.m)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = make([]complex128, len(x))
				if err := p.Transform(outs[i], x, fft1d.Forward); err != nil {
					t.Fatal(err)
				}
				if d := cvec.MaxDiff(cvec.Vec(outs[i]), cvec.Vec(want)); d > tol*float64(c.n*c.m) {
					t.Errorf("%dx%d μ=%d p=%v unfused=%v: diff vs reference %g",
						c.n, c.m, c.mu, w, unfused, d)
				}
			}
			for i := range outs[0] {
				if outs[0][i] != outs[1][i] {
					t.Fatalf("%dx%d μ=%d p=%v: fused and unfused outputs differ at %d: %v vs %v",
						c.n, c.m, c.mu, w, i, outs[0][i], outs[1][i])
				}
			}
		}
	}
}

// Fusion shortens the schedule: an S-stage graph saves S-1 steps over the
// drain-between-stages baseline, visible in the plan's telemetry.
func TestFusionStatsSteps2D(t *testing.T) {
	steps := func(unfused bool) int {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: unfused})
		p, err := NewPlan(Config{Mu: 4, BufferElems: 64}, false, 16, 16)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(7, 16*16)
		y := make([]complex128, len(x))
		if err := p.Transform(y, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		o := p.Observability()
		if len(o.Stages) != 2 || o.Steps == 0 {
			t.Fatalf("unexpected telemetry: %d stages, %d steps", len(o.Stages), o.Steps)
		}
		return int(o.Steps)
	}
	if f, u := steps(false), steps(true); u-f != 1 { // S-1 = 1 for 2 stages
		t.Fatalf("fused %d steps, unfused %d, want a saving of exactly 1", f, u)
	}
}

// Inverse is, bitwise, Transform(…, fft1d.Inverse) followed by
// fft1d.Scale(dst, 1/(n·m)) — whether the scale ran on the way out of the
// column stage's fold or run-major store or in its compute leg (a plain
// unit-major store).
func TestInverseBitwiseEqualsTransformThenScale2D(t *testing.T) {
	shapes := []struct {
		n, m int
		fold bool // the column stage folds (fold on): the scale rides its store
	}{
		{64, 64, true},
		{32, 128, true},
		{64, 96, true},  // M not a power of two: no pass over dst either
		{96, 64, true},  // n=96 runs [3 8 4], whose trailing radix-4 folds
		{20, 12, true},  // n=20 runs [5 4]
		{24, 12, false}, // columns do not fold (n=24 runs [3 8]): scale after the full DFT_n
	}
	dbuf := Config{}
	variants := []struct {
		name string
		o    Config
		ab   stagegraph.Ablation
	}{
		{"default", dbuf, stagegraph.Ablation{}},
		{"unfused", dbuf, stagegraph.Ablation{Unfused: true}},
		{"nofold", dbuf, stagegraph.Ablation{NoFold: true}},
		{"mu4/radix8", Config{Mu: 4}, stagegraph.Ablation{Radix: 8}},
		{"streaming", dbuf, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}},
		{"workers2x2", Config{DataWorkers: 2, ComputeWorkers: 2}, stagegraph.Ablation{}},
	}
	for _, sh := range shapes {
		for _, v := range variants {
			o := v.o
			o.BufferElems = 1 << 9
			t.Run(fmt.Sprintf("%dx%d/%s", sh.n, sh.m, v.name), func(t *testing.T) {
				restore := stagegraph.SetAblation(v.ab)
				p, err := NewPlan(o, false, sh.n, sh.m)
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
				x := randVec(int64(sh.n*sh.m), sh.n*sh.m)
				want := make([]complex128, len(x))
				if err := p.Transform(want, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(want, 1/float64(len(x)))
				got := make([]complex128, len(x))
				if err := p.Inverse(got, x); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, got, want)
				// The scale is per call: an unnormalized transform right
				// after must not inherit it.
				if err := p.Transform(got, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(got, 1/float64(len(x)))
				requireSameBits(t, got, want)
			})
		}
	}
}

// Regression for the μ default: plan-time μ must come from the machine
// model (largest of 8/4/2 dividing m), not a hardcoded 4 — μ=8 measures
// ~0.95 of STREAM peak on the blocked transpose against ~0.65 for μ=4.
func TestDefaultMuFollowsMachineModel2D(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{256, 256, 8},
		{64, 64, 8},
		{16, 12, 4},
		{8, 6, 2},
		{4, 7, 1},
	}
	for _, c := range cases {
		if got := machine.PreferredMu(c.m); got != c.want {
			t.Fatalf("PreferredMu(%d) = %d; want %d", c.m, got, c.want)
		}
		p, err := NewPlan(Config{BufferElems: 1 << 10}, false, c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mu() != c.want {
			t.Errorf("%dx%d default μ = %d; want %d", c.n, c.m, p.Mu(), c.want)
		}
		p.Close()
	}
	// Explicit Mu still wins over the model.
	p, err := NewPlan(Config{Mu: 4}, false, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Mu() != 4 {
		t.Fatalf("explicit μ=4 overridden to %d", p.Mu())
	}
}

func TestStorePolicyWiring2D(t *testing.T) {
	nt := 0
	if layout.NonTemporalAvailable() {
		nt = 2 // both DoubleBuf stages
	}
	// Forced streaming stores flag every stage; forced regular flags none;
	// Auto stays regular for a cache-resident 64×64.
	for _, c := range []struct {
		policy stagegraph.StorePolicy
		want   int
	}{
		{stagegraph.StoreNonTemporal, nt},
		{stagegraph.StoreRegular, 0},
		{stagegraph.StoreAuto, 0},
	} {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: c.policy})
		p, err := NewPlan(Config{}, false, 64, 64)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.NonTemporalStages(); got != c.want {
			t.Errorf("policy %v: %d NT stages; want %d", c.policy, got, c.want)
		}
		p.Close()
	}
}

// Forced streaming stores must not change results: run a transform with
// StoreNonTemporal against the spl oracle.
func TestNonTemporalTransformMatchesSPL(t *testing.T) {
	const n, m = 64, 64
	restore := stagegraph.SetAblation(stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal})
	p, err := NewPlan(Config{DataWorkers: 2, ComputeWorkers: 2}, false, n, m)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(99, n*m)
	want := refDFT2D(n, m, x, fft1d.Forward)
	got := make([]complex128, len(x))
	if err := p.Transform(got, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n*m) {
		t.Errorf("NT transform: diff %g", d)
	}
	p.Close()
}
