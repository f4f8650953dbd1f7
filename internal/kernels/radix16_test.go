package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
)

// A single radix-16 stage on n = 16 is the whole DFT.
func TestRadix16StepMatchesNaiveDFT16(t *testing.T) {
	for _, sign := range []int{Forward, Inverse} {
		x := randVec(int64(160+sign), 16)
		want := NaiveDFT(x, sign)
		got := make([]complex128, 16)
		tw := NewStageTwiddles(16, 16, sign)
		Radix16Step(got, x, 1, 1, sign, tw)
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol {
			t.Errorf("Radix16Step n=16 sign=%d: max diff %g", sign, d)
		}
	}
}

// twoPassRadix4 is the reference the fused codelet must match: the radix-4
// stage pair at (n1, s) then (n1/4, 4s) that Radix16Step collapses into one
// register sweep.
func twoPassRadix4(dst, src []complex128, m, s, sign int) {
	n1 := 16 * m
	mid := make([]complex128, len(src))
	twA := NewStageTwiddles(n1, 4, sign)
	Radix4StepGeneric(mid, src, n1/4, s, sign, twA)
	twB := NewStageTwiddles(n1/4, 4, sign)
	Radix4StepGeneric(dst, mid, n1/16, 4*s, sign, twB)
}

// The fused radix-16 stage must equal the two-pass radix-4 chain it
// replaces, for random strides and block counts in both directions —
// interleaved format.
func TestRadix16MatchesTwoPassRadix4(t *testing.T) {
	r := rand.New(rand.NewSource(1616))
	for iter := 0; iter < 40; iter++ {
		m := 1 + r.Intn(12)
		s := 1 + r.Intn(9)
		sign := Forward
		if iter%2 == 1 {
			sign = Inverse
		}
		n := 16 * m * s
		src := randComplex(r, n)
		want := make([]complex128, n)
		twoPassRadix4(want, src, m, s, sign)
		got := make([]complex128, n)
		tw := NewStageTwiddles(16*m, 16, sign)
		Radix16StepGeneric(got, src, m, s, sign, tw)
		if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
			t.Fatalf("fused radix-16 m=%d s=%d sign=%d: max diff %g", m, s, sign, d)
		}
		// The dispatched entry point (codelet tier when present) against
		// the same two-pass reference.
		Radix16Step(got, src, m, s, sign, tw)
		if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
			t.Fatalf("dispatched radix-16 m=%d s=%d sign=%d: max diff %g", m, s, sign, d)
		}
	}
}

// applyStockham16 composes fused radix-16 stages (radix-8/4/2 remainder)
// into a full power-of-two Stockham FFT over `lanes` interleaved lanes.
func applyStockham16(x []complex128, lanes, sign int) []complex128 {
	n := len(x) / lanes
	cur := append([]complex128(nil), x...)
	nxt := make([]complex128, len(x))
	s := lanes
	n1 := n
	for n1 > 1 {
		switch {
		case n1%16 == 0:
			tw := NewStageTwiddles(n1, 16, sign)
			Radix16Step(nxt, cur, n1/16, s, sign, tw)
			s *= 16
			n1 /= 16
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

func TestRadix16StepsComposeToDFT(t *testing.T) {
	for _, n := range []int{16, 32, 64, 128, 256, 1024, 4096} {
		for _, sign := range []int{Forward, Inverse} {
			x := randVec(int64(16*n+sign), n)
			want := NaiveDFT(x, sign)
			got := applyStockham16(x, 1, sign)
			if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
				t.Errorf("radix-16 Stockham n=%d sign=%d: max diff %g", n, sign, d)
			}
		}
	}
}

// Lane form: s = μ stages compute DFT_n ⊗ I_μ, same as the radix-8 path.
func TestRadix16LanesMatchRadix8Lanes(t *testing.T) {
	const n, mu = 256, 4
	x := randVec(1688, n*mu)
	a := applyStockham16(x, mu, Forward)
	b := applyStockham8(x, mu, Forward)
	if d := cvec.MaxDiff(cvec.Vec(a), cvec.Vec(b)); d > tol*n {
		t.Fatalf("radix-16 lane kernel disagrees with radix-8: %g", d)
	}
}

// The batched fused sweep over many pencils must match per-pencil generic
// steps (random pencil counts — the shape the stage-graph drivers use).
func TestBatchRadix16MatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(416))
	for iter := 0; iter < 10; iter++ {
		m := 1 + r.Intn(6)
		s := 1 + r.Intn(5)
		pencils := 1 + r.Intn(7)
		sign := Forward
		if iter%2 == 1 {
			sign = Inverse
		}
		stride := 16 * m * s
		src := randComplex(r, pencils*stride)
		tw := NewStageTwiddles(16*m, 16, sign)
		got := make([]complex128, pencils*stride)
		BatchRadix16Step(got, src, pencils, stride, m, s, sign, tw)
		want := make([]complex128, pencils*stride)
		for c := 0; c < pencils; c++ {
			o := c * stride
			Radix16StepGeneric(want[o:o+stride], src[o:o+stride], m, s, sign, tw)
		}
		if d := maxDiffC(got, want); d > eqTol*scaleFor(want) {
			t.Fatalf("batch radix-16 pencils=%d m=%d s=%d: max diff %g", pencils, m, s, d)
		}
	}
}

// Both assembly tiers read m entries from each of W1…W15, so a table with
// any short leg must be stopped in Go — where the generic tier's bounds
// checks turn it into a panic — and never reach a kernel that would read
// past the slice.
func TestRadix16StepRejectsShortTwiddleLeg(t *testing.T) {
	const m, s = 4, 4
	src := randVec(1604, 16*m*s)
	dst := make([]complex128, 16*m*s)
	for _, short := range []func(*StageTwiddles){
		func(tw *StageTwiddles) { tw.W2 = tw.W2[:m-1] },
		func(tw *StageTwiddles) { tw.W15 = tw.W15[:m-1] },
		func(tw *StageTwiddles) { tw.W9 = nil },
	} {
		tw := NewStageTwiddles(16*m, 16, Forward)
		short(&tw)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Radix16Step ran a stage whose twiddle table has a short leg")
				}
			}()
			Radix16Step(dst, src, m, s, Forward, tw)
		}()
	}
}
