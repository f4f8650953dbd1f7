package serve

import (
	"context"
	"errors"
	"math/cmplx"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func realVec(n, seed int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((i*5+seed)%17) - 8
	}
	return v
}

// naiveHalfSpectrum computes the reference r2c transform: the first n/2+1
// bins of the dense DFT of the complexified signal.
func naiveHalfSpectrum(src []float64) []complex128 {
	c := make([]complex128, len(src))
	for i, v := range src {
		c[i] = complex(v, 0)
	}
	return naiveDFT(c)[:len(src)/2+1]
}

func approxEqualReal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := a[i] - b[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// TestDoRealCorrectness checks served real transforms of every rank: the
// rank-1 forward against the reference half spectrum, and rank-2/3
// inverse∘forward round trips through the half-spectrum format.
func TestDoRealCorrectness(t *testing.T) {
	s := New(Options{Config: smallCfg(), MaxBatch: 4, Executors: 2})
	defer shutdownOrFail(t, s)
	ctx := context.Background()

	t.Run("rank1", func(t *testing.T) {
		const n = 64
		src := realVec(n, 1)
		dst := make([]complex128, n/2+1)
		if err := s.Do(ctx, Request{Rank: 1, Dims: [3]int{n}, Real: true,
			RealSrc: src, Dst: dst}); err != nil {
			t.Fatal(err)
		}
		want := naiveHalfSpectrum(src)
		for k := range want {
			if cmplx.Abs(dst[k]-want[k]) > 1e-9 {
				t.Fatalf("bin %d: got %v want %v", k, dst[k], want[k])
			}
		}
	})
	t.Run("roundtrip2d", func(t *testing.T) {
		n, m := 16, 32
		src := realVec(n*m, 2)
		spec := make([]complex128, n*(m/2+1))
		back := make([]float64, n*m)
		if err := s.Do(ctx, Request{Rank: 2, Dims: [3]int{n, m}, Real: true,
			RealSrc: src, Dst: spec}); err != nil {
			t.Fatal(err)
		}
		if err := s.Do(ctx, Request{Rank: 2, Dims: [3]int{n, m}, Real: true,
			Inverse: true, Src: spec, RealDst: back}); err != nil {
			t.Fatal(err)
		}
		if !approxEqualReal(back, src, 1e-9) {
			t.Error("real rank-2 inverse∘forward is not the identity")
		}
	})
	t.Run("roundtrip3d", func(t *testing.T) {
		k, n, m := 4, 8, 16
		src := realVec(k*n*m, 3)
		spec := make([]complex128, k*n*(m/2+1))
		back := make([]float64, k*n*m)
		if err := s.Do(ctx, Request{Rank: 3, Dims: [3]int{k, n, m}, Real: true,
			RealSrc: src, Dst: spec}); err != nil {
			t.Fatal(err)
		}
		if err := s.Do(ctx, Request{Rank: 3, Dims: [3]int{k, n, m}, Real: true,
			Inverse: true, Src: spec, RealDst: back}); err != nil {
			t.Fatal(err)
		}
		if !approxEqualReal(back, src, 1e-9) {
			t.Error("real rank-3 inverse∘forward is not the identity")
		}
	})
}

// TestRealCoalescedBatch runs eight same-shape real 1D requests with
// different inputs as one coalesced batch — one packed sweep — and checks
// every caller gets its own correct half spectrum plus exact per-kind byte
// accounting (8 B per real element, 16 B per spectrum bin).
func TestRealCoalescedBatch(t *testing.T) {
	const n, k = 64, 8
	const mc = n/2 + 1
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = Request{Rank: 1, Dims: [3]int{n}, Real: true,
			RealSrc: realVec(n, i), Dst: make([]complex128, mc)}
	}
	snap := serveAsOneBatch(t, reqs)
	for i, r := range reqs {
		if !approxEqual(r.Dst, naiveHalfSpectrum(r.RealSrc), 1e-9) {
			t.Errorf("request %d: coalesced real result disagrees with reference", i)
		}
	}
	checkRealBatchCounters(t, snap, k*(8*n+16*mc))
}

// TestRealCoalescedBatchInverse is the c2r twin: the half spectra of eight
// different signals, inverted as one coalesced batch, return the signals.
func TestRealCoalescedBatchInverse(t *testing.T) {
	const n, k = 64, 8
	const mc = n/2 + 1
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = Request{Rank: 1, Dims: [3]int{n}, Real: true, Inverse: true,
			Src: naiveHalfSpectrum(realVec(n, i)), RealDst: make([]float64, n)}
	}
	snap := serveAsOneBatch(t, reqs)
	for i, r := range reqs {
		if !approxEqualReal(r.RealDst, realVec(n, i), 1e-9) {
			t.Errorf("request %d: coalesced inverse does not return the signal", i)
		}
	}
	checkRealBatchCounters(t, snap, k*(8*n+16*mc))
}

// checkRealBatchCounters: one coalesced real batch is one real execution and
// no complex one, and moved exactly wantBytes, all of them booked as real.
func checkRealBatchCounters(t *testing.T, snap Snapshot, wantBytes int) {
	t.Helper()
	if snap.ExecutionsReal != 1 || snap.ExecutionsComplex != 0 {
		t.Errorf("execution kind split: real=%d complex=%d, want 1 and 0",
			snap.ExecutionsReal, snap.ExecutionsComplex)
	}
	if snap.BytesMovedReal != uint64(wantBytes) || snap.BytesMoved != uint64(wantBytes) {
		t.Errorf("real bytes moved %d (total %d), want %d",
			snap.BytesMovedReal, snap.BytesMoved, wantBytes)
	}
}

// TestRealComplexBatchSeparation interleaves same-dims real and complex 1D
// requests: sameBatch must keep the kinds apart, and both populations must
// still get correct answers.
func TestRealComplexBatchSeparation(t *testing.T) {
	const n, pairs = 32, 20
	s := New(Options{Config: smallCfg(), MaxBatch: 8, Executors: 1})
	defer shutdownOrFail(t, s)

	cWant := naiveDFT(testVec(n, 0))
	rWant := naiveHalfSpectrum(realVec(n, 0))
	var wg sync.WaitGroup
	errCh := make(chan error, 2*pairs)
	cDsts := make([][]complex128, pairs)
	rDsts := make([][]complex128, pairs)
	for i := 0; i < pairs; i++ {
		cDsts[i] = make([]complex128, n)
		rDsts[i] = make([]complex128, n/2+1)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errCh <- s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
				Src: testVec(n, 0), Dst: cDsts[i]})
		}(i)
		go func(i int) {
			defer wg.Done()
			errCh <- s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
				Real: true, RealSrc: realVec(n, 0), Dst: rDsts[i]})
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pairs; i++ {
		if !approxEqual(cDsts[i], cWant, 1e-9) {
			t.Fatalf("complex request %d corrupted by kind mixing", i)
		}
		if !approxEqual(rDsts[i], rWant, 1e-9) {
			t.Fatalf("real request %d corrupted by kind mixing", i)
		}
	}
	snap := s.Stats()
	if snap.ExecutionsReal == 0 || snap.ExecutionsComplex == 0 {
		t.Errorf("expected both kinds to execute: real=%d complex=%d",
			snap.ExecutionsReal, snap.ExecutionsComplex)
	}
}

// TestRealValidation checks malformed real requests fail synchronously.
func TestRealValidation(t *testing.T) {
	s := New(Options{Config: smallCfg()})
	defer shutdownOrFail(t, s)
	ctx := context.Background()
	cases := []Request{
		// Odd last dim.
		{Rank: 1, Dims: [3]int{15}, Real: true,
			RealSrc: make([]float64, 15), Dst: make([]complex128, 8)},
		// Wrong spectrum length.
		{Rank: 1, Dims: [3]int{16}, Real: true,
			RealSrc: make([]float64, 16), Dst: make([]complex128, 16)},
		// Wrong real length.
		{Rank: 2, Dims: [3]int{4, 8}, Real: true,
			RealSrc: make([]float64, 16), Dst: make([]complex128, 20)},
		// Forward with the inverse-side buffers populated.
		{Rank: 1, Dims: [3]int{16}, Real: true,
			RealSrc: make([]float64, 16), Dst: make([]complex128, 9),
			Src: make([]complex128, 9)},
		// Inverse with the forward-side buffers populated.
		{Rank: 1, Dims: [3]int{16}, Real: true, Inverse: true,
			Src: make([]complex128, 9), RealDst: make([]float64, 16),
			RealSrc: make([]float64, 16)},
		// Complex request carrying real buffers without the Real flag.
		{Rank: 1, Dims: [3]int{16},
			Src: make([]complex128, 16), Dst: make([]complex128, 16),
			RealSrc: make([]float64, 16)},
	}
	for i, req := range cases {
		if err := s.Do(ctx, req); err == nil {
			t.Errorf("case %d: malformed real request accepted", i)
		}
	}
	if got := s.Stats().Completed; got != 0 {
		t.Errorf("malformed requests completed: %d", got)
	}
}

// TestRealPrometheusFamilies checks the per-kind plan families appear in
// the exposition with the right labels.
func TestRealPrometheusFamilies(t *testing.T) {
	s := New(Options{Config: smallCfg(), MaxBatch: 1})
	defer shutdownOrFail(t, s)
	const n = 32
	if err := s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
		Real: true, RealSrc: realVec(n, 0), Dst: make([]complex128, n/2+1)}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`fft_plan_executions_total{kind="real"} 1`,
		`fft_plan_executions_total{kind="complex"} 0`,
		`fft_plan_bytes_moved_total{kind="real"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// getPlan pins the cached plan of key for the rest of the test.
func getPlan(t *testing.T, pc *PlanCache, key PlanKey) *Plan {
	t.Helper()
	p, release, err := pc.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return p
}

// A complex Execute on a real key returns an error wrapping core.ErrDomain,
// in both directions and at every rank.
func TestExecuteOnRealKeyIsADomainError(t *testing.T) {
	pc := NewPlanCache(4)
	defer pc.Purge()
	for _, key := range []PlanKey{
		{Rank: 1, D0: 16, Real: true},
		{Rank: 2, D0: 4, D1: 16, Real: true},
		{Rank: 3, D0: 2, D1: 4, D2: 16, Real: true},
	} {
		p := getPlan(t, pc, key)
		dst, src := make([]complex128, key.Len()), make([]complex128, key.Len())
		for _, inverse := range []bool{false, true} {
			if err := p.Execute(dst, src, inverse); !errors.Is(err, core.ErrDomain) {
				t.Errorf("rank-%d real key, inverse=%v: Execute returned %v, want core.ErrDomain", key.Rank, inverse, err)
			}
		}
	}
}

// A real execution on a complex key returns an error wrapping
// core.ErrDomain, in both directions and at every rank.
func TestExecuteRealOnComplexKeyIsADomainError(t *testing.T) {
	pc := NewPlanCache(4)
	defer pc.Purge()
	for _, key := range []PlanKey{
		{Rank: 1, D0: 16},
		{Rank: 2, D0: 4, D1: 16},
		{Rank: 3, D0: 2, D1: 4, D2: 16},
	} {
		p := getPlan(t, pc, key)
		spec, re := make([]complex128, key.Len()), make([]float64, key.Len())
		for _, inverse := range []bool{false, true} {
			if err := p.ExecuteReal(spec, re, inverse); !errors.Is(err, core.ErrDomain) {
				t.Errorf("rank-%d complex key, inverse=%v: ExecuteReal returned %v, want core.ErrDomain", key.Rank, inverse, err)
			}
		}
	}
}
