package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// serveAsOneBatch runs reqs (same shape and direction, rank 1) through a fresh
// server as exactly one batch of len(reqs) and returns its final counters: the
// one executor is held on execGate with the first request it took until the
// others are all queued behind it, then drains them as one batch.
func serveAsOneBatch(t *testing.T, reqs []Request) Snapshot {
	t.Helper()
	gate := make(chan struct{})
	s := New(Options{Config: smallCfg(), MaxBatch: len(reqs), Executors: 1})
	s.execGate = gate
	defer shutdownOrFail(t, s)
	errs := make([]<-chan error, len(reqs))
	for i := range reqs {
		errs[i] = submit(s, reqs[i])
	}
	waitQueued(t, s, len(reqs)-1)
	close(gate)
	for i := range errs {
		if err := <-errs[i]; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap := s.Stats()
	if snap.Batches != 1 || snap.BatchedItems != uint64(len(reqs)) {
		t.Fatalf("%d requests ran as %d batches of %d items in all, want one batch",
			len(reqs), snap.Batches, snap.BatchedItems)
	}
	return snap
}

// submit calls Do on its own goroutine; the channel delivers Do's result.
func submit(s *Server, req Request) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- s.Do(context.Background(), req) }()
	return errc
}

// waitQueued blocks until n requests sit in s's queue, which — with the
// executors held on execGate — is how a test knows its Do calls got there.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(s.queue) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(s.queue), n)
		}
		time.Sleep(50 * time.Microsecond)
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
// two and in a full MaxBatch batch returns bitwise the fft1d plan's own
// output, in cache (4096) and past L2 (2¹⁷). determinism_public_test.go
// closes the triangle with the public handles.
func TestBatchingDoesNotChangeBits(t *testing.T) {
	const maxBatch = 8
	for _, n := range []int{4096, 1 << 17} {
		for _, inverse := range []bool{false, true} {
			src := testVec(n, 3)
			want := make([]complex128, n)
			if inverse {
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

// TestRank1KeysShareOnePlan: a complex rank-1 plan reads no configuration,
// so keys that differ in workers, buffer, μ or roofline normalize
// to one cache entry; the real-input plan of the same size (which does read
// them) stays distinct.
func TestRank1KeysShareOnePlan(t *testing.T) {
	pc := NewPlanCache(8)
	defer pc.Purge()
	base := PlanKey{Rank: 1, D0: 4096, Cfg: smallCfg()}
	get := func(k PlanKey) *Plan {
		t.Helper()
		p, release, err := pc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		release()
		return p
	}
	first := get(base)
	for name, mutate := range map[string]func(*core.Config){
		"workers":  func(c *core.Config) { c.DataWorkers, c.ComputeWorkers = 2, 2 },
		"buffer":   func(c *core.Config) { c.BufferElems = 1 << 14 },
		"mu":       func(c *core.Config) { c.Mu = 4 },
		"roofline": func(c *core.Config) { c.RooflineGBs = 12 },
	} {
		k := base
		mutate(&k.Cfg)
		if k == base {
			t.Fatalf("%s: mutation left the key unchanged", name)
		}
		if get(k) != first {
			t.Errorf("%s: key built its own plan, want the shared one", name)
		}
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 4 {
		t.Errorf("cache saw %d misses / %d hits, want 1 / 4", s.Misses, s.Hits)
	}
	realA, realB := base, base
	realA.Real, realB.Real = true, true
	realB.Cfg.BufferElems = 1 << 9
	if get(realA) == get(realB) {
		t.Error("real rank-1 keys with different buffers shared a plan")
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
