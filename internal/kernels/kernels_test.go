package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
)

const tol = 1e-10

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

func TestNaiveDFTKnownValues(t *testing.T) {
	// DFT of a delta is all ones.
	x := []complex128{1, 0, 0, 0}
	y := NaiveDFT(x, Forward)
	for i, c := range y {
		if cvec.MaxDiff(cvec.Vec{c}, cvec.Vec{1}) > tol {
			t.Fatalf("delta DFT[%d] = %v, want 1", i, c)
		}
	}
	// DFT of all-ones is n·delta.
	x = []complex128{1, 1, 1, 1}
	y = NaiveDFT(x, Forward)
	want := cvec.Vec{4, 0, 0, 0}
	if cvec.MaxDiff(cvec.Vec(y), want) > tol {
		t.Fatalf("ones DFT = %v, want %v", y, want)
	}
}

func TestNaiveDFTInverseRoundTrip(t *testing.T) {
	x := randVec(1, 12)
	y := NaiveDFT(x, Forward)
	z := NaiveDFT(y, Inverse)
	for i := range z {
		z[i] /= complex(float64(len(x)), 0)
	}
	if cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)) > tol {
		t.Fatal("naive forward+inverse/n is not identity")
	}
}

func TestSmallCodeletsMatchNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16} {
		for _, sign := range []int{Forward, Inverse} {
			x := randVec(int64(10*n+sign), n)
			want := NaiveDFT(x, sign)
			got := make([]complex128, n)
			Small(n)(got, x, sign)
			if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol {
				t.Errorf("Small(%d) sign=%d mismatch: max diff %g",
					n, sign, cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)))
			}
		}
	}
}

// applyStockham runs a full power-of-two Stockham FFT using the stage
// kernels directly (the fft1d package wraps this in a plan; here we verify
// the kernels themselves compose correctly).
func applyStockham(x []complex128, lanes, sign int, radix4 bool) []complex128 {
	n := len(x) / lanes
	cur := append([]complex128(nil), x...)
	nxt := make([]complex128, len(x))
	s := lanes
	n1 := n
	for n1 > 1 {
		if radix4 && n1%4 == 0 {
			tw := NewStageTwiddles(n1, 4, sign)
			Radix4Step(nxt, cur, n1/4, s, sign, tw)
			s *= 4
			n1 /= 4
		} else {
			tw := NewStageTwiddles(n1, 2, sign)
			Radix2Step(nxt, cur, n1/2, s, tw)
			s *= 2
			n1 /= 2
		}
		cur, nxt = nxt, cur
	}
	return cur
}

func TestRadix2StepsComposeToDFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randVec(int64(n), n)
		want := NaiveDFT(x, Forward)
		got := applyStockham(x, 1, Forward, false)
		if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol*float64(n) {
			t.Errorf("radix-2 Stockham n=%d mismatch", n)
		}
	}
}

func TestRadix4StepsComposeToDFT(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 1024} {
		for _, sign := range []int{Forward, Inverse} {
			x := randVec(int64(n+sign), n)
			want := NaiveDFT(x, sign)
			got := applyStockham(x, 1, sign, true)
			if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol*float64(n) {
				t.Errorf("radix-4 Stockham n=%d sign=%d mismatch", n, sign)
			}
		}
	}
}

// Lanes: running the same stages with s=μ computes DFT_n ⊗ I_μ.
func TestStockhamLanesComputeTensorKernel(t *testing.T) {
	const n, mu = 16, 4
	x := randVec(99, n*mu)
	got := applyStockham(x, mu, Forward, true)
	// Reference: apply NaiveDFT to each lane independently.
	want := make([]complex128, n*mu)
	for lane := 0; lane < mu; lane++ {
		sub := make([]complex128, n)
		for i := 0; i < n; i++ {
			sub[i] = x[i*mu+lane]
		}
		ref := NaiveDFT(sub, Forward)
		for i := 0; i < n; i++ {
			want[i*mu+lane] = ref[i]
		}
	}
	if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) > tol*n {
		t.Fatal("lane-vector Stockham does not equal DFT_n ⊗ I_mu")
	}
}

func TestStageTwiddlesValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewStageTwiddles(8, 3, Forward) },
		func() { NewStageTwiddles(6, 4, Forward) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid stage twiddles")
				}
			}()
			f()
		}()
	}
}

// Property: DFT is linear — DFT(a·x + y) = a·DFT(x) + DFT(y).
func TestQuickLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 64
	for trial := 0; trial < 25; trial++ {
		a := complex(rng.Float64()*4-2, rng.Float64()*4-2)
		x := cvec.Random(rng, n)
		y := cvec.Random(rng, n)
		z := make(cvec.Vec, n)
		for i := range z {
			z[i] = a*x[i] + y[i]
		}
		fz := applyStockham(z, 1, Forward, true)
		fx := applyStockham(x, 1, Forward, true)
		fy := applyStockham(y, 1, Forward, true)
		for i := range fz {
			fx[i] = a*fx[i] + fy[i]
		}
		if cvec.MaxDiff(cvec.Vec(fz), cvec.Vec(fx)) > tol*n {
			t.Fatal("Stockham kernels are not linear")
		}
	}
}

func BenchmarkKernelInterleaved(b *testing.B) {
	const n = 4096
	x := randVec(1, n)
	b.SetBytes(int64(n * 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = applyStockham(x, 1, Forward, true)
	}
}
