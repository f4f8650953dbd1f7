package serve

import (
	"context"
	"math/bits"
	"sync"
	"testing"
	"time"

	"repro/internal/fft1d"
	"repro/internal/machine"
)

// serveAsOneBatch runs reqs (same shape and direction, rank 1) through a fresh
// server as exactly one batch of len(reqs). MaxBatch is the batch size, and a
// phantom admitted request keeps the dispatcher lingering (outstanding > batch)
// until the batch is full, however the submitters are scheduled.
func serveAsOneBatch(t *testing.T, reqs []Request) {
	t.Helper()
	s := New(Options{Config: smallCfg(), MaxBatch: len(reqs), Executors: 1, BatchWindow: time.Minute})
	defer shutdownOrFail(t, s)
	s.outstanding.Add(1)
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Do(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	s.outstanding.Add(-1)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if snap := s.Stats(); snap.Batches != 1 || snap.BatchedItems != uint64(len(reqs)) {
		t.Fatalf("%d requests ran as %d batches of %d items in all, want one batch",
			len(reqs), snap.Batches, snap.BatchedItems)
	}
}

func bitsEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchingDoesNotChangeBits: the same input served lone, in a batch of
// two and in a full MaxBatch batch returns bitwise-identical output — the
// direct fft1d plan's below fft1dlarge's L2 bound, the six-step graph's above
// it.
func TestBatchingDoesNotChangeBits(t *testing.T) {
	const maxBatch = 8
	above := 1 << bits.Len(uint(machine.HostL2Bytes()/32)) // first power of two past the bound
	for _, n := range []int{4096, above} {
		for _, inverse := range []bool{false, true} {
			src := testVec(n, 3)
			want := make([]complex128, n)
			if n == above {
				ref, err := buildPlan(normalizeKey(PlanKey{Rank: 1, D0: n, Cfg: smallCfg()}))
				if err != nil {
					t.Fatal(err)
				}
				if ref.P1().Direct() {
					t.Fatalf("n=%d is above the bound yet planned direct", n)
				}
				if err := ref.Execute(want, src, inverse); err != nil {
					t.Fatal(err)
				}
				ref.close()
			} else if inverse {
				fft1d.NewPlan(n).Transform(want, src, fft1d.Inverse)
				fft1d.Scale(want, 1/float64(n))
			} else {
				fft1d.NewPlan(n).Transform(want, src, fft1d.Forward)
			}

			for _, k := range []int{1, 2, maxBatch} {
				reqs := make([]Request, k)
				for i := range reqs {
					reqs[i] = Request{Rank: 1, Dims: [3]int{n}, Inverse: inverse,
						Src: src, Dst: make([]complex128, n)}
				}
				serveAsOneBatch(t, reqs)
				for i, r := range reqs {
					if !bitsEqual(r.Dst, want) {
						t.Errorf("n=%d inverse=%v: item %d of a batch of %d differs from the plan's own output", n, inverse, i, k)
					}
				}
			}
		}
	}
}

// TestAliasedRank1Request: a rank-1 request whose Dst overlaps its Src — the
// same slice, or one shifted against the other — is served from a copy of
// its input and returns the bits of the disjoint request, lone and coalesced.
func TestAliasedRank1Request(t *testing.T) {
	const n, shift = 4096, 100
	src := testVec(n, 5)
	want := make([]complex128, n)
	fft1d.NewPlan(n).Transform(want, src, fft1d.Forward)

	for _, shift := range []int{0, shift} { // in place, then Src shifted against Dst
		for _, k := range []int{1, 2} {
			reqs := make([]Request, k)
			for i := range reqs {
				buf := make([]complex128, n+shift)
				copy(buf[shift:], src)
				reqs[i] = Request{Rank: 1, Dims: [3]int{n}, Src: buf[shift:], Dst: buf[:n]}
			}
			serveAsOneBatch(t, reqs)
			for i, r := range reqs {
				if !bitsEqual(r.Dst, want) {
					t.Errorf("shift %d: aliased item %d of a batch of %d differs from the disjoint transform", shift, i, k)
				}
			}
		}
	}
}

func TestOverlaps(t *testing.T) {
	buf := make([]complex128, 16)
	for _, c := range []struct {
		a, b []complex128
		want bool
	}{
		{buf[:8], buf[:8], true},
		{buf[:8], buf[7:], true},
		{buf[4:6], buf[:16], true},
		{buf[:8], buf[8:], false},
		{buf[:0], buf[:8], false},
		{buf[:8], make([]complex128, 8), false},
	} {
		if got := overlaps(c.a, c.b); got != c.want {
			t.Errorf("overlaps(%d elems, %d elems) = %v, want %v", len(c.a), len(c.b), got, c.want)
		}
		if got := overlaps(c.b, c.a); got != c.want {
			t.Errorf("overlaps is not symmetric")
		}
	}
}
