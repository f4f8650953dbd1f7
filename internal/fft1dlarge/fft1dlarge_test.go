package fft1dlarge

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/machine"
)

const tol = 1e-8

func randVec(seed int64, n int) []complex128 {
	return cvec.Random(rand.New(rand.NewSource(seed)), n)
}

func checkAgainstDirect(t *testing.T, n int, opts Options, sign int) {
	t.Helper()
	p, err := NewPlan(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(int64(n+sign), n)
	want := make([]complex128, n)
	fft1d.NewPlan(n).Transform(want, x, sign)
	got := make([]complex128, n)
	if err := p.Transform(got, x, sign); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(n) {
		t.Errorf("n=%d split=%v: max diff %g", n, firstSecond(p), d)
	}
}

func firstSecond(p *Plan) [2]int {
	a, b := p.Split()
	return [2]int{a, b}
}

func TestSixStepMatchesDirect(t *testing.T) {
	opts := Options{MinN: 16, BufferElems: 1 << 10}
	for _, n := range []int{16, 64, 256, 1024, 4096, 1 << 14, 1 << 16} {
		checkAgainstDirect(t, n, opts, fft1d.Forward)
	}
}

func TestSixStepInverse(t *testing.T) {
	checkAgainstDirect(t, 1<<12, Options{MinN: 16, BufferElems: 1 << 10}, fft1d.Inverse)
}

func TestNonPow2Sizes(t *testing.T) {
	opts := Options{MinN: 16, BufferElems: 512}
	for _, n := range []int{36, 100, 600, 1000, 2310} {
		checkAgainstDirect(t, n, opts, fft1d.Forward)
	}
}

func TestMultiWorker(t *testing.T) {
	checkAgainstDirect(t, 1<<14, Options{
		MinN: 16, BufferElems: 1 << 11, DataWorkers: 2, ComputeWorkers: 3,
	}, fft1d.Forward)
}

func TestRoundTrip(t *testing.T) {
	const n = 1 << 13
	p, err := NewPlan(n, Options{MinN: 16, BufferElems: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(7, n)
	y := make([]complex128, n)
	z := make([]complex128, n)
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(z, y, fft1d.Inverse); err != nil {
		t.Fatal(err)
	}
	fft1d.Scale(z, 1/float64(n))
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > tol {
		t.Fatalf("round trip diff %g", d)
	}
}

func TestDirectFallback(t *testing.T) {
	// Below the bound the plan must delegate to the in-cache FFT.
	p, err := NewPlan(256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Direct() {
		t.Fatal("small plan should be direct")
	}
	if a, b := p.Split(); a != 256 || b != 1 {
		t.Fatalf("Split = %d,%d", a, b)
	}
	checkAgainstDirect(t, 256, Options{}, fft1d.Forward)

	// Primes cannot split: direct even above MinN.
	pp, err := NewPlan(8191, Options{MinN: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !pp.Direct() {
		t.Fatal("prime plan should be direct")
	}
	checkAgainstDirect(t, 8191, Options{MinN: 16}, fft1d.Forward)
}

// TestDefaultBound: with MinN unset the direct/six-step switch-over follows
// the L2 size — direct while src and dst (32·n bytes) fit it together — and
// an explicit MinN still forces the graph below it.
func TestDefaultBound(t *testing.T) {
	for _, c := range []struct{ l2Bytes, largestDirect int }{
		{256 << 10, 1 << 13},
		{2 << 20, 1 << 16},
		{1 << 20, 1 << 15}, // machine.HostL2Bytes' fallback when no L2 is detected
	} {
		if got := defaultMinN(c.l2Bytes) - 1; got != c.largestDirect {
			t.Errorf("L2 of %d bytes: largest direct size %d, want %d", c.l2Bytes, got, c.largestDirect)
		}
	}

	fits := machine.HostL2Bytes() / 32
	for n, wantDirect := range map[int]bool{fits: true, 2 * fits: false} {
		p, err := NewPlan(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Direct() != wantDirect {
			t.Errorf("n=%d on a %d-byte L2: Direct() = %v, want %v", n, machine.HostL2Bytes(), p.Direct(), wantDirect)
		}
		p.Close()
	}
	p, err := NewPlan(1<<12, Options{MinN: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Direct() {
		t.Error("MinN = 16 did not force the six-step graph at n = 4096")
	}
	p.Close()
}

func TestSplitBalance(t *testing.T) {
	cases := map[int][2]int{
		1 << 16: {256, 256},
		1 << 15: {256, 128},
		1000:    {40, 25},
		36:      {6, 6},
	}
	for n, want := range cases {
		a, b := split(n)
		if a != want[0] || b != want[1] {
			t.Errorf("split(%d) = %d,%d want %v", n, a, b, want)
		}
		if a*b != n {
			t.Errorf("split(%d) does not multiply back", n)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewPlan(0, Options{}); err == nil {
		t.Error("accepted n=0")
	}
	p, _ := NewPlan(1<<14, Options{MinN: 16})
	if err := p.Transform(make([]complex128, 5), make([]complex128, 1<<14), fft1d.Forward); err == nil {
		t.Error("accepted bad lengths")
	}
}

func TestTinyBufferStillCorrect(t *testing.T) {
	// Buffer smaller than one row forces rPer = 1 (single-row blocks).
	checkAgainstDirect(t, 1<<12, Options{MinN: 16, BufferElems: 8}, fft1d.Forward)
}

func BenchmarkSixStepVsDirect(b *testing.B) {
	const n = 1 << 18
	x := randVec(1, n)
	y := make([]complex128, n)
	b.Run("sixstep", func(b *testing.B) {
		p, _ := NewPlan(n, Options{MinN: 16, BufferElems: 1 << 14})
		b.SetBytes(int64(n * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Transform(y, x, fft1d.Forward); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		p := fft1d.NewPlan(n)
		b.SetBytes(int64(n * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Transform(y, x, fft1d.Forward)
		}
	})
}

// Inverse is, bitwise, Transform(…, fft1d.Inverse) followed by
// fft1d.Scale(dst, 1/n): the six-step plan scales the last stage's rows in
// cache, the direct fallback scales dst.
func TestInverseBitwiseEqualsTransformThenScale(t *testing.T) {
	for _, c := range []struct {
		n    int
		opts Options
	}{
		{1 << 13, Options{BufferElems: 1 << 10}},
		{1 << 13, Options{BufferElems: 1 << 10, Unfused: true}},
		{1 << 12, Options{DataWorkers: 2, ComputeWorkers: 2, BufferElems: 1 << 9}},
		{6000, Options{MinN: 1 << 10, BufferElems: 1 << 9}}, // non-pow2 six-step
		{1 << 14, Options{Radix: 16}},
		{1 << 8, Options{}}, // direct fallback
	} {
		p, err := NewPlan(c.n, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(int64(c.n), c.n)
		want := make([]complex128, c.n)
		if err := p.Transform(want, x, fft1d.Inverse); err != nil {
			t.Fatal(err)
		}
		fft1d.Scale(want, 1/float64(c.n))
		got := make([]complex128, c.n)
		if err := p.Inverse(got, x); err != nil {
			t.Fatal(err)
		}
		if i := cvec.FirstBitDiff(got, want); i >= 0 {
			t.Fatalf("n=%d %+v: element %d: got %v, want %v (bitwise)", c.n, c.opts, i, got[i], want[i])
		}
		// The scale is per call: the next unnormalized transform must not
		// inherit it.
		if err := p.Transform(got, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(want, x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: forward after Inverse differs at %d", c.n, i)
			}
		}
		p.Close()
	}
}

// The radix cap follows the sub-plans: 16 (the planner default) is
// accepted and is what 0 selects.
func TestRadix16AcceptedAndDefault(t *testing.T) {
	const n = 1 << 14
	x := randVec(3, n)
	outs := make([][]complex128, 2)
	for i, r := range []int{0, 16} {
		p, err := NewPlan(n, Options{Radix: r})
		if err != nil {
			t.Fatalf("Radix %d: %v", r, err)
		}
		outs[i] = make([]complex128, n)
		if err := p.Transform(outs[i], x, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("Radix 0 and 16 differ at %d", i)
		}
	}
	if _, err := NewPlan(n, Options{Radix: 3}); err == nil {
		t.Fatal("accepted Radix 3")
	}
}
