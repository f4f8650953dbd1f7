package fft1d

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/kernels"
)

const tol = 1e-9

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

func checkDFT(t *testing.T, n, sign int) {
	t.Helper()
	p := NewPlan(n)
	x := randVec(int64(n*3+sign), n)
	want := kernels.NaiveDFT(x, sign)
	got := make([]complex128, n)
	p.Transform(got, x, sign)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
		t.Errorf("n=%d sign=%d (%s): max diff %g", n, sign, p.Kind(), d)
	}
}

func TestTransformAllSizesThrough64(t *testing.T) {
	for n := 1; n <= 64; n++ {
		checkDFT(t, n, Forward)
		checkDFT(t, n, Inverse)
	}
}

func TestTransformAssortedLargerSizes(t *testing.T) {
	for _, n := range []int{100, 128, 120, 125, 243, 256, 210, 512, 1000, 1024,
		2048, 4096, 101, 127, 257, 509} {
		checkDFT(t, n, Forward)
	}
}

// Every size is one Stockham chain, named by its radices: n ≤ 8 one
// generic stage, odd primes first (Bluestein above 8), then the
// power-of-two part's codelet radices.
func TestPlanKinds(t *testing.T) {
	cases := map[int]string{
		4:      "stockham[4]",
		6:      "stockham[6]",
		8:      "stockham[8]",
		16:     "stockham[4 4]",
		1024:   "stockham[16 16 4]",
		127:    "stockham[127]",
		509:    "stockham[509]",
		96:     "stockham[3 8 4]",
		3072:   "stockham[3 16 16 4]",
		2310:   "stockham[3 5 7 11 2]",
		8186:   "stockham[4093 2]",
		15 * 8: "stockham[3 5 8]",
	}
	for n, want := range cases {
		if got := NewPlan(n).Kind(); got != want {
			t.Errorf("Plan(%d).Kind() = %q, want %q", n, got, want)
		}
	}
	for n, fold := range map[int]bool{8: false, 16: true, 256: false, 96: true, 24: false, 127: false} {
		if got := NewPlan(n).FoldRadix() == 4; got != fold {
			t.Errorf("Plan(%d).FoldRadix() = %d, want a fold: %v", n, NewPlan(n).FoldRadix(), fold)
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	if NewPlan(4096) != NewPlan(4096) {
		t.Fatal("NewPlan did not cache")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 64, 100, 128, 127, 360, 1024} {
		p := NewPlan(n)
		x := randVec(int64(n), n)
		y := make([]complex128, n)
		z := make([]complex128, n)
		p.Transform(y, x, Forward)
		p.Transform(z, y, Inverse)
		Scale(z, 1/float64(n))
		if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > tol {
			t.Errorf("round trip n=%d: max diff %g", n, d)
		}
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	// Parseval: ||X||² = n·||x||².
	for _, n := range []int{16, 60, 128, 127} {
		p := NewPlan(n)
		x := randVec(int64(n+7), n)
		y := make([]complex128, n)
		p.Transform(y, x, Forward)
		ex := cvec.Vec(x).L2()
		ey := cvec.Vec(y).L2()
		ratio := ey * ey / (ex * ex * float64(n))
		if ratio < 0.999999 || ratio > 1.000001 {
			t.Errorf("Parseval violated for n=%d: ratio %v", n, ratio)
		}
	}
}

func TestLanesEqualsPerLaneTransforms(t *testing.T) {
	for _, tc := range []struct{ n, mu int }{
		{16, 4}, {64, 8}, {8, 3}, {12, 4}, {127, 2}, {32, 1},
	} {
		p := NewPlan(tc.n)
		x := randVec(int64(tc.n*tc.mu), tc.n*tc.mu)
		got := make([]complex128, tc.n*tc.mu)
		p.Lanes(got, x, tc.mu, Forward)
		for l := 0; l < tc.mu; l++ {
			sub := make([]complex128, tc.n)
			for i := range sub {
				sub[i] = x[i*tc.mu+l]
			}
			want := kernels.NaiveDFT(sub, Forward)
			for i := range sub {
				if d := cvec.MaxDiff(cvec.Vec{got[i*tc.mu+l]}, cvec.Vec{want[i]}); d > tol*float64(tc.n) {
					t.Fatalf("Lanes n=%d mu=%d lane=%d i=%d: diff %g", tc.n, tc.mu, l, i, d)
				}
			}
		}
	}
}

func TestInPlaceMatchesOutOfPlace(t *testing.T) {
	for _, n := range []int{8, 16, 96, 127, 1024} {
		p := NewPlan(n)
		x := randVec(int64(n+1), n)
		want := make([]complex128, n)
		p.Transform(want, x, Forward)
		got := append([]complex128(nil), x...)
		p.InPlace(got, Forward)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
			t.Errorf("InPlace n=%d: diff %g", n, d)
		}
	}
}

func TestInPlaceLanes(t *testing.T) {
	p := NewPlan(32)
	x := randVec(5, 32*4)
	want := make([]complex128, len(x))
	p.Lanes(want, x, 4, Forward)
	got := append([]complex128(nil), x...)
	p.InPlaceLanes(got, 4, Forward)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
		t.Errorf("InPlaceLanes: diff %g", d)
	}
}

func TestBatchMatchesLoop(t *testing.T) {
	const n, count = 64, 10
	p := NewPlan(n)
	x := randVec(9, n*count)
	want := append([]complex128(nil), x...)
	for c := 0; c < count; c++ {
		p.InPlace(want[c*n:(c+1)*n], Forward)
	}
	ar := kernels.NewArena(0, 0)
	got := append([]complex128(nil), x...)
	p.BatchArena(got, count, Forward, ar)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
		t.Errorf("BatchArena: diff %g", d)
	}
	got2 := make([]complex128, n*count)
	p.BatchLanesArena(got2, x, count, 1, Forward, ar)
	if d := cvec.MaxDiff(cvec.Vec(got2), cvec.Vec(want)); d > tol {
		t.Errorf("BatchLanesArena from a source: diff %g", d)
	}
}

func TestStridedMatchesGathered(t *testing.T) {
	const n, stride, base = 32, 7, 3
	p := NewPlan(n)
	x := randVec(13, base+(n-1)*stride+5)
	want := append([]complex128(nil), x...)
	pencil := make([]complex128, n)
	for i := 0; i < n; i++ {
		pencil[i] = want[base+i*stride]
	}
	p.InPlace(pencil, Forward)
	for i := 0; i < n; i++ {
		want[base+i*stride] = pencil[i]
	}
	got := append([]complex128(nil), x...)
	p.Strided(got, base, stride, Forward)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
		t.Errorf("Strided: diff %g", d)
	}
}

func TestScaleHelpers(t *testing.T) {
	x := []complex128{2, 4i}
	Scale(x, 0.5)
	if x[0] != 1 || x[1] != 2i {
		t.Fatalf("Scale: got %v", x)
	}
}

func TestTimeShiftProperty(t *testing.T) {
	// Circular shift in time multiplies spectrum by ω_n^{k·s}.
	const n, shift = 64, 5
	p := NewPlan(n)
	x := randVec(31, n)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i+shift)%n]
	}
	fx := make([]complex128, n)
	fs := make([]complex128, n)
	p.Transform(fx, x, Forward)
	p.Transform(fs, shifted, Forward)
	for k := 0; k < n; k++ {
		// x'(i) = x(i+shift) ⇒ X'_k = X_k · conj(ω_n^{k·shift}).
		w := kernels.NaiveDFT(delta(n, shift), Forward)[k] // ω_n^{k·shift}
		wc := complex(real(w), -imag(w))
		if d := cvec.MaxDiff(cvec.Vec{fs[k]}, cvec.Vec{fx[k] * wc}); d > tol*n {
			t.Fatalf("time shift property violated at k=%d: %g", k, d)
		}
	}
}

func delta(n, at int) []complex128 {
	d := make([]complex128, n)
	d[at] = 1
	return d
}

func TestValidationPanics(t *testing.T) {
	p := NewPlan(8)
	ar := kernels.NewArena(0, 0)
	for i, f := range []func(){
		func() { NewPlan(0) },
		func() { NewPlan(-3) },
		func() { p.Lanes(make([]complex128, 8), make([]complex128, 8), 0, Forward) },
		func() { p.Lanes(make([]complex128, 7), make([]complex128, 8), 1, Forward) },
		func() { p.InPlace(make([]complex128, 7), Forward) },
		func() { p.BatchArena(make([]complex128, 15), 2, Forward, ar) },
		func() { p.BatchLanesArena(make([]complex128, 16), make([]complex128, 15), 2, 1, Forward, ar) },
		func() { p.Strided(make([]complex128, 10), 0, 2, Forward) },
		func() { p.InPlaceLanes(make([]complex128, 9), 1, Forward) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property-style test: DFT of real even sequences is real (up to tolerance).
func TestRealEvenSymmetry(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(41))
	x := make([]complex128, n)
	x[0] = complex(rng.Float64(), 0)
	for i := 1; i <= n/2; i++ {
		v := complex(rng.Float64(), 0)
		x[i] = v
		x[n-i] = v
	}
	p := NewPlan(n)
	y := make([]complex128, n)
	p.Transform(y, x, Forward)
	for k, c := range y {
		if imPart := imag(c); imPart > 1e-10 || imPart < -1e-10 {
			t.Fatalf("DFT of real even sequence has imaginary part %g at k=%d", imPart, k)
		}
	}
}

func BenchmarkTransformPow2(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		p := NewPlan(n)
		x := randVec(1, n)
		y := make([]complex128, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			for i := 0; i < b.N; i++ {
				p.Transform(y, x, Forward)
			}
		})
	}
}

func BenchmarkLanesVectorKernel(b *testing.B) {
	// DFT_512 ⊗ I_4: the cacheline-vector kernel shape from the paper.
	p := NewPlan(512)
	x := randVec(1, 512*4)
	y := make([]complex128, 512*4)
	b.SetBytes(int64(len(x) * 16))
	for i := 0; i < b.N; i++ {
		p.Lanes(y, x, 4, Forward)
	}
}

func BenchmarkStridedPencil(b *testing.B) {
	// The baseline's cache-hostile strided pencil: DFT_512 at stride 512.
	const n, stride = 512, 512
	p := NewPlan(n)
	x := randVec(1, n*stride)
	b.SetBytes(int64(n * 16))
	for i := 0; i < b.N; i++ {
		p.Strided(x, i%stride, stride, Forward)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return string(rune('0'+n>>20)) + "Mi"
	case n >= 1024:
		if n%1024 == 0 {
			v := n / 1024
			s := ""
			for v > 0 {
				s = string(rune('0'+v%10)) + s
				v /= 10
			}
			return s + "Ki"
		}
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
