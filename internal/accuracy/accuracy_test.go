package accuracy

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/kernels"
)

func TestErrorWithinTheoreticalGrowth(t *testing.T) {
	// Every kind of chain must stay within C·√(log n)·ε.
	sizes := []int{4, 8, 16, 64, 256, 1024, 4096, // pow2
		12, 96, 360, 1000, 2310, // odd factors
		127, 509, 1021, // primes: Bluestein stages
	}
	if testing.Short() {
		sizes = sizes[:7]
	}
	for _, n := range sizes {
		err := RelErr1D(n)
		if b := Bound(n); err > b {
			t.Errorf("n=%d (%s): rel err %.2e exceeds bound %.2e",
				n, fft1d.NewPlan(n).Kind(), err, b)
		}
		if err == 0 && n > 4 {
			t.Errorf("n=%d: implausible zero error (oracle broken?)", n)
		}
	}
}

func TestErrorGrowthIsSlow(t *testing.T) {
	// Error at 4096 should be within a small factor of the error at 64 —
	// O(√log n), not O(n).
	small := RelErr1D(64)
	large := RelErr1D(4096)
	if large > 30*small {
		t.Fatalf("error grows too fast: %.2e @64 → %.2e @4096", small, large)
	}
}

func TestOracleMoreAccurateThanNaive(t *testing.T) {
	// The compensated oracle and the plain naive DFT should agree closely
	// — and certainly to far better than the acceptance bound.
	const n = 512
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	a := oracleDFT(x, fft1d.Forward)
	b := kernels.NaiveDFT(x, kernels.Forward)
	var worst float64
	for i := range a {
		d := a[i] - b[i]
		mag := math.Hypot(real(a[i]), imag(a[i])) + 1
		if e := math.Hypot(real(d), imag(d)) / mag; e > worst {
			worst = e
		}
	}
	if worst > 1e-11 {
		t.Fatalf("oracle and naive disagree by %.2e", worst)
	}
}

func TestBoundMonotone(t *testing.T) {
	if Bound(16) >= Bound(1<<20) {
		t.Fatal("bound should grow with n")
	}
	if Bound(1) <= 0 {
		t.Fatal("bound must be positive at n=1")
	}
}

func TestReport(t *testing.T) {
	var b bytes.Buffer
	Report(&b, []int{64, 128})
	out := b.String()
	if !strings.Contains(out, "rel L2 error") || !strings.Contains(out, "stockham[16 4]") {
		t.Fatalf("report malformed:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Fatalf("report flags a failing size:\n%s", out)
	}
}
