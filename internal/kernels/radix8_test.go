package kernels

import (
	"testing"

	"repro/internal/cvec"
)

// A single radix-8 stage on n = 8 is the whole DFT.
func TestRadix8StepMatchesNaiveDFT8(t *testing.T) {
	for _, sign := range []int{Forward, Inverse} {
		x := randVec(int64(80+sign), 8)
		want := NaiveDFT(x, sign)
		got := make([]complex128, 8)
		tw := NewStageTwiddles(8, 8, sign)
		Radix8Step(got, x, 1, 1, sign, tw)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
			t.Errorf("Radix8Step n=8 sign=%d: max diff %g", sign, d)
		}
	}
}

// applyStockham8 composes radix-8 stages (radix-4/2 for the remainder) into
// a full power-of-two Stockham FFT over `lanes` interleaved lanes.
func applyStockham8(x []complex128, lanes, sign int) []complex128 {
	n := len(x) / lanes
	cur := append([]complex128(nil), x...)
	nxt := make([]complex128, len(x))
	s := lanes
	n1 := n
	for n1 > 1 {
		switch {
		case n1%8 == 0:
			tw := NewStageTwiddles(n1, 8, sign)
			Radix8Step(nxt, cur, n1/8, s, sign, tw)
			s *= 8
			n1 /= 8
		case n1%4 == 0:
			tw := NewStageTwiddles(n1, 4, sign)
			Radix4Step(nxt, cur, n1/4, s, sign, tw)
			s *= 4
			n1 /= 4
		default:
			tw := NewStageTwiddles(n1, 2, sign)
			Radix2Step(nxt, cur, n1/2, s, tw)
			s *= 2
			n1 /= 2
		}
		cur, nxt = nxt, cur
	}
	return cur
}

func TestRadix8StepsComposeToDFT(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128, 512, 4096} {
		for _, sign := range []int{Forward, Inverse} {
			x := randVec(int64(8*n+sign), n)
			want := NaiveDFT(x, sign)
			got := applyStockham8(x, 1, sign)
			if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
				t.Errorf("radix-8 Stockham n=%d sign=%d: max diff %g", n, sign, d)
			}
		}
	}
}

// Radix-8 and radix-4 stage mixes must agree to rounding on the same input.
func TestRadix8AgreesWithRadix4(t *testing.T) {
	for _, n := range []int{64, 512, 2048} {
		x := randVec(int64(5*n), n)
		a := applyStockham8(x, 1, Forward)
		b := applyStockham(x, 1, Forward, true)
		if d := cvec.MaxDiff(cvec.Vec(a), cvec.Vec(b)); d > tol*float64(n) {
			t.Errorf("radix-8 vs radix-4 n=%d: max diff %g", n, d)
		}
	}
}

// Lane form: s = μ stages compute DFT_n ⊗ I_μ, same as the radix-4 path.
func TestRadix8LanesMatchRadix4Lanes(t *testing.T) {
	const n, mu = 64, 4
	x := randVec(88, n*mu)
	a := applyStockham8(x, mu, Forward)
	b := applyStockham(x, mu, Forward, true)
	if d := cvec.MaxDiff(cvec.Vec(a), cvec.Vec(b)); d > tol*n {
		t.Fatalf("radix-8 lane kernel disagrees with radix-4: %g", d)
	}
}

// The batched sweep must equal per-pencil stage applications.
func TestBatchRadix8StepMatchesPerPencil(t *testing.T) {
	const n, pencils = 64, 5
	stride := n
	x := randVec(77, pencils*stride)
	tw := NewStageTwiddles(n, 8, Forward)
	got := make([]complex128, len(x))
	BatchRadix8Step(got, x, pencils, stride, n/8, 1, Forward, tw)
	want := make([]complex128, len(x))
	for c := 0; c < pencils; c++ {
		o := c * stride
		Radix8Step(want[o:o+n], x[o:o+n], n/8, 1, Forward, tw)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d != 0 {
		t.Fatalf("BatchRadix8Step differs from per-pencil: %g", d)
	}
}

// BenchmarkBatchRadix8Step reports the sweep's streaming bandwidth (read +
// write, 32 B per element per pass) for comparison with internal/stream.
func BenchmarkBatchRadix8Step(b *testing.B) {
	const n, pencils = 4096, 16
	x := randVec(1, pencils*n)
	dst := make([]complex128, len(x))
	tw := NewStageTwiddles(n, 8, Forward)
	b.SetBytes(int64(len(x) * 32))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchRadix8Step(dst, x, pencils, n, n/8, 1, Forward, tw)
	}
}
