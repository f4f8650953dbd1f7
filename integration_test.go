package repro

// Cross-module integration tests: each test exercises several subsystems
// end to end, the way the example programs and a downstream user would.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/spl"
	"repro/internal/stagegraph"
	"repro/internal/trace"
	"repro/internal/tune"
)

// The full chain: SPL formula semantics → public doublebuf plan. The SPL
// interpreter is itself verified against the dense DFT, so this pins the
// production path to the mathematical definition end to end.
func TestIntegrationPublicPlanMatchesSPL(t *testing.T) {
	const k, n, m = 4, 8, 8
	x := cvec.Random(rand.New(rand.NewSource(1)), k*n*m)
	want := spl.Eval(spl.DFT3D(k, n, m), x)
	p, err := NewFFT3D(k, n, m, WithBufferElems(64), withLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(x))
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(k*n*m) {
		t.Fatalf("public plan diverges from SPL semantics: %g", d)
	}
}

// Spectral differentiation: d/dx of a trigonometric polynomial computed
// via forward transform, ik multiply, inverse transform.
func TestIntegrationSpectralDerivative(t *testing.T) {
	const n = 128
	p, err := NewFFT1D(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	dx := make([]complex128, n)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / n
		x[i] = complex(math.Sin(3*th)+0.5*math.Cos(7*th), 0)
		dx[i] = complex(3*math.Cos(3*th)-3.5*math.Sin(7*th), 0)
	}
	spec := make([]complex128, n)
	if err := p.Forward(spec, x); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		kk := k
		if k > n/2 {
			kk = k - n
		}
		spec[k] *= complex(0, float64(kk))
	}
	got := make([]complex128, n)
	if err := p.Inverse(got, spec); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(dx)); d > 1e-9 {
		t.Fatalf("spectral derivative off by %g", d)
	}
}

// FFT-based convolution against the direct O(N²) computation, through the
// public 2D plan.
func TestIntegration2DConvolution(t *testing.T) {
	const n, m = 16, 16
	rng := rand.New(rand.NewSource(2))
	a := cvec.Random(rng, n*m)
	b := cvec.Random(rng, n*m)
	// Direct circular 2D convolution.
	want := make([]complex128, n*m)
	for y := 0; y < n; y++ {
		for x := 0; x < m; x++ {
			var s complex128
			for v := 0; v < n; v++ {
				for u := 0; u < m; u++ {
					s += a[v*m+u] * b[((y-v+n)%n)*m+(x-u+m)%m]
				}
			}
			want[y*m+x] = s
		}
	}
	p, err := NewFFT2D(n, m, WithBufferElems(64))
	if err != nil {
		t.Fatal(err)
	}
	fa := make([]complex128, n*m)
	fb := make([]complex128, n*m)
	if err := p.Forward(fa, a); err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(fb, b); err != nil {
		t.Fatal(err)
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	got := make([]complex128, n*m)
	if err := p.Inverse(got, fa); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-7*float64(n*m) {
		t.Fatalf("convolution theorem chain off by %g", d)
	}
}

// Tune → rebuild with the winning candidate's options, verifying the tuned
// plan still computes the right answer.
func TestIntegrationTuneAndReplay(t *testing.T) {
	const k, n, m = 16, 16, 16
	space := tune.Space{
		Buffers: []int{256, 1024},
		Mus:     []int{4},
	}
	best, _, err := tune.Tune([]int{k, n, m}, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewFFT3D(k, n, m,
		WithBufferElems(best.BufferElems),
		WithCacheline(best.Mu))
	if err != nil {
		t.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(3)), k*n*m)
	got := make([]complex128, len(x))
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	want := spl.Eval(spl.DFT3D(k, n, m), x)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-8 {
		t.Fatalf("tuned plan wrong: %g", d)
	}
}

// The full 3D transform under a tracer, on two lanes: every block of every
// stage is loaded, computed and stored once, in order, by the lane whose
// share it is; no stage starts before the last store of the one before; and
// each lane's logged ops lie inside its part of the run.
func TestIntegrationFullTransformScheduleInvariants(t *testing.T) {
	tr := trace.New()
	p, err := core.NewPlan(core.Config{Mu: 4, BufferElems: 128, Lanes: 2, Tracer: tr}, false, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(4)), p.Len())
	y := make([]complex128, p.Len())
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	// For 8×8×16 with μ=4 and b=128: the pipeline-depth floor trims the
	// capacity-sized blocks (8 pencils / 4 units) to 4 pencils and 2 units,
	// so stage 1 streams its 64 pencils and stages 2–3 their 32 units in 16
	// iterations each, 8 a lane.
	iters := []int{16, 16, 16}
	if got := p.Iters(); !slices.Equal(got, iters) {
		t.Fatalf("iters %v, want %v", got, iters)
	}
	if err := stagegraph.CheckLanes(tr, iters, 2); err != nil {
		t.Fatal(err)
	}
	perLane := map[int]int{}
	for _, e := range tr.Events() {
		if e.Op == trace.Store {
			perLane[e.Lane]++
		}
	}
	if perLane[0] != 24 || perLane[1] != 24 {
		t.Fatalf("stores per lane %v, want 24 each", perLane)
	}
}
