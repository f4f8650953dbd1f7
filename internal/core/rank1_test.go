package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// rank1Sizes spans n ≤ 8 (one generic stage), powers of two, a composite
// with an odd factor, 1000 (odd factors 5³) and a Bluestein prime.
var rank1Sizes = []int{1, 2, 7, 8, 1000, 4093, 4096, 3 << 10, 1 << 16}

// A complex rank-1 plan is its chain, bit for bit: Transform is
// stagegraph.Plan1D(n).Transform in either direction, and Inverse is the
// inverse Transform followed by fft1d.Scale(1/n).
func TestRank1EqualsChain(t *testing.T) {
	for _, n := range rank1Sizes {
		p, err := NewPlan(Config{}, false, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		chain := stagegraph.Plan1D(n)
		x := randVec(int64(n), n)
		got, want := make([]complex128, n), make([]complex128, n)
		for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
			chain.Transform(want, x, sign)
			if err := p.Transform(got, x, sign); err != nil {
				t.Fatalf("n=%d sign=%d: %v", n, sign, err)
			}
			requireSameBits(t, got, want)
		}
		fft1d.Scale(want, 1/float64(n)) // want holds the inverse transform
		if err := p.Inverse(got, x); err != nil {
			t.Fatalf("n=%d Inverse: %v", n, err)
		}
		requireSameBits(t, got, want)
		p.Close()
	}
}

// Transforms on one rank-1 plan take no lock: two goroutines run at once,
// race-clean, each getting the chain's bits.
func TestRank1ConcurrentTransforms(t *testing.T) {
	for _, n := range []int{4093, 4096} {
		p, err := NewPlan(Config{}, false, n)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := randVec(int64(n+g), n)
				want := make([]complex128, n)
				stagegraph.Plan1D(n).Transform(want, x, fft1d.Forward)
				got := make([]complex128, n)
				for i := 0; i < 20; i++ {
					if err := p.Transform(got, x, fft1d.Forward); err != nil {
						t.Error(err)
						return
					}
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("n=%d goroutine %d run %d: element %d differs", n, g, i, j)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// The plan surface answers on a rank-1 plan, which has no runner: the
// accessors report no pipeline, the real entry points ErrDomain, and bad
// lengths or signs an error rather than a panic.
func TestRank1Surface(t *testing.T) {
	const n = 64
	p, err := NewPlan(Config{}, false, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, n), randVec(1, n), fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if o := p.Observability(); o.Runs != 0 || o.Steps != 0 || len(o.Stages) != 0 {
		t.Errorf("Observability %+v, want the zero value", o)
	}
	if s := p.DescribeGraph(); s != "" {
		t.Errorf("DescribeGraph %q, want empty", s)
	}
	if p.Mu() != 0 || p.Iters() != nil || p.NonTemporalStages() != 0 || p.ScalesInStore() {
		t.Errorf("Mu %d, Iters %v, NonTemporalStages %d, ScalesInStore %v: want no pipeline",
			p.Mu(), p.Iters(), p.NonTemporalStages(), p.ScalesInStore())
	}
	if p.Len() != n || p.SpectrumLen() != n || len(p.Dims()) != 1 || p.Dims()[0] != n {
		t.Errorf("Len %d, SpectrumLen %d, Dims %v", p.Len(), p.SpectrumLen(), p.Dims())
	}
	c, r := make([]complex128, n), make([]float64, n)
	if err := p.ForwardReal(c, r, 1); !errors.Is(err, ErrDomain) {
		t.Errorf("ForwardReal: %v, want ErrDomain", err)
	}
	if err := p.InverseReal(r, c, 1); !errors.Is(err, ErrDomain) {
		t.Errorf("InverseReal: %v, want ErrDomain", err)
	}
	if err := p.Transform(make([]complex128, n), make([]complex128, n-1), fft1d.Forward); err == nil {
		t.Error("Transform accepted a short src")
	}
	if err := p.Inverse(make([]complex128, n+1), make([]complex128, n)); err == nil {
		t.Error("Inverse accepted a long dst")
	}
	if err := p.Transform(make([]complex128, n), make([]complex128, n), 0); err == nil {
		t.Error("Transform accepted sign 0")
	}
	p.Close()
	p.Close()
}
