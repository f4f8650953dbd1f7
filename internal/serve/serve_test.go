package serve

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// smallCfg keeps worker teams tiny so tests spin up quickly.
func smallCfg() core.Config {
	cfg := core.Default()
	cfg.DataWorkers, cfg.ComputeWorkers = 1, 1
	cfg.BufferElems = 1 << 10
	return cfg
}

func naiveDFT(src []complex128) []complex128 {
	n := len(src)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k*j) / float64(n)
			sum += src[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func testVec(n int, seed int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(float64((i*7+seed)%13)-6, float64((i*3+seed)%11)-5)
	}
	return v
}

func approxEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func shutdownOrFail(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestDoCorrectness checks that served transforms of every rank match the
// reference DFT and that inverse round-trips restore the input.
func TestDoCorrectness(t *testing.T) {
	s := New(Options{Config: smallCfg(), MaxBatch: 4, Executors: 2})
	defer shutdownOrFail(t, s)
	ctx := context.Background()

	t.Run("rank1", func(t *testing.T) {
		src := testVec(64, 1)
		dst := make([]complex128, 64)
		if err := s.Do(ctx, Request{Rank: 1, Dims: [3]int{64}, Src: src, Dst: dst}); err != nil {
			t.Fatal(err)
		}
		if want := naiveDFT(src); !approxEqual(dst, want, 1e-9) {
			t.Error("rank-1 served transform disagrees with reference DFT")
		}
	})
	t.Run("roundtrip2d", func(t *testing.T) {
		src := testVec(32*16, 2)
		mid := make([]complex128, len(src))
		back := make([]complex128, len(src))
		req := Request{Rank: 2, Dims: [3]int{32, 16}, Src: src, Dst: mid}
		if err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		req = Request{Rank: 2, Dims: [3]int{32, 16}, Inverse: true, Src: mid, Dst: back}
		if err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		if !approxEqual(back, src, 1e-9) {
			t.Error("rank-2 inverse∘forward is not the identity")
		}
	})
	t.Run("roundtrip3d", func(t *testing.T) {
		src := testVec(8*8*16, 3)
		mid := make([]complex128, len(src))
		back := make([]complex128, len(src))
		if err := s.Do(ctx, Request{Rank: 3, Dims: [3]int{8, 8, 16}, Src: src, Dst: mid}); err != nil {
			t.Fatal(err)
		}
		if err := s.Do(ctx, Request{Rank: 3, Dims: [3]int{8, 8, 16}, Inverse: true, Src: mid, Dst: back}); err != nil {
			t.Fatal(err)
		}
		if !approxEqual(back, src, 1e-9) {
			t.Error("rank-3 inverse∘forward is not the identity")
		}
	})
}

// TestCoalescedBatchCorrectness runs eight same-shape 1D requests with
// different inputs as one coalesced batch and checks every caller still gets
// its own correct answer.
func TestCoalescedBatchCorrectness(t *testing.T) {
	const n, k = 64, 8
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = Request{Rank: 1, Dims: [3]int{n}, Src: testVec(n, i), Dst: make([]complex128, n)}
	}
	serveAsOneBatch(t, reqs)
	for i, r := range reqs {
		if !approxEqual(r.Dst, naiveDFT(r.Src), 1e-9) {
			t.Errorf("request %d: coalesced result disagrees with reference", i)
		}
	}
}

// TestDifferentShapeMetMidDrain: an executor draining a batch that meets a
// request of another shape holds it, serves it as its own next batch ahead of
// what was queued behind it, and still serves it — and the rest of the queue —
// when Shutdown closes the queue while the item is held.
func TestDifferentShapeMetMidDrain(t *testing.T) {
	const n = 64
	gate := make(chan struct{})
	s := New(Options{Config: smallCfg(), MaxBatch: 8, Executors: 1})
	s.execGate = gate
	mk := func(n, seed int) Request {
		return Request{Rank: 1, Dims: [3]int{n}, Src: testVec(n, seed), Dst: make([]complex128, n)}
	}
	reqs := []Request{mk(n, 0), mk(n, 1), mk(n/2, 2), mk(n, 3)}
	// Queue order is what the test is about: 0 and 1 in either order (one is
	// taken by the executor, one queued), then 2, then 3.
	errs := []<-chan error{submit(s, reqs[0]), submit(s, reqs[1]), nil, nil}
	waitQueued(t, s, 1)
	errs[2] = submit(s, reqs[2])
	waitQueued(t, s, 2)
	errs[3] = submit(s, reqs[3])
	waitQueued(t, s, 3)
	check := func(i int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !approxEqual(reqs[i].Dst, naiveDFT(reqs[i].Src), 1e-9) {
			t.Fatalf("request %d: wrong answer", i)
		}
	}

	gate <- struct{}{} // first batch: requests 0 and 1; request 2 is met and held
	check(0, <-errs[0])
	check(1, <-errs[1])
	if snap := s.Stats(); snap.Batches != 1 || snap.BatchedItems != 2 {
		t.Fatalf("first batch: %d batches of %d items in all, want 1 of 2", snap.Batches, snap.BatchedItems)
	}

	// The executor is now at the gate with request 2 in hand. Shutdown
	// closes the queue under it and cannot finish while the gate is shut.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a held item returned %v, want DeadlineExceeded", err)
	}
	gate <- struct{}{} // second batch: the held request alone, ahead of request 3
	select {
	case err := <-errs[2]:
		check(2, err)
	case <-errs[3]:
		t.Fatal("request 3 was served before the held request 2")
	}
	close(gate)
	check(3, <-errs[3])
	shutdownOrFail(t, s)
	if snap := s.Stats(); snap.Batches != 3 || snap.Completed != 4 {
		t.Errorf("%d batches, %d completed, want 3 and 4", snap.Batches, snap.Completed)
	}
}

// TestRejectBackpressure fills the queue with the executor gated shut and
// checks overflow submissions fail fast with ErrOverloaded.
func TestRejectBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s := New(Options{Config: smallCfg(), QueueDepth: 2, MaxBatch: 1,
		Executors: 1, Policy: Reject})
	s.execGate = gate

	n := 16
	submit := func() error {
		return s.Do(context.Background(), Request{
			Rank: 1, Dims: [3]int{n},
			Src: testVec(n, 0), Dst: make([]complex128, n)})
	}
	// With the gate shut the server absorbs at most 3 requests (2 in the
	// queue, 1 held by the executor at the gate), so at least 5 of 8
	// submissions must be rejected — and a rejection is the only way a Do
	// can return while the gate is shut, so the first five errCh reads
	// cannot block and must all be ErrOverloaded.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); errCh <- submit() }()
	}
	rejected := 0
	for i := 0; i < 5; i++ {
		if err := <-errCh; errors.Is(err, ErrOverloaded) {
			rejected++
		} else {
			t.Fatalf("got %v while the executor was gated, want ErrOverloaded", err)
		}
	}
	gateOpen := make(chan struct{})
	go func() {
		defer close(gateOpen)
		for {
			select {
			case gate <- struct{}{}:
			case <-s.stopped:
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if errors.Is(err, ErrOverloaded) {
			rejected++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if s.Stats().Rejected != uint64(rejected) {
		t.Errorf("rejected counter %d, want %d", s.Stats().Rejected, rejected)
	}
	shutdownOrFail(t, s)
	<-gateOpen
}

// TestContextCancellation checks both admission-time and queued-request
// cancellation: a cancelled context must abandon the request without the
// executor ever touching the caller's buffers.
func TestContextCancellation(t *testing.T) {
	gate := make(chan struct{})
	s := New(Options{Config: smallCfg(), QueueDepth: 4, MaxBatch: 1, Executors: 1})
	s.execGate = gate
	defer func() { shutdownOrFail(t, s) }()

	n := 16
	// Park one request at the gate, then queue another and cancel it.
	first := make(chan error, 1)
	go func() {
		first <- s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
			Src: testVec(n, 0), Dst: make([]complex128, n)})
	}()

	ctx, cancel := context.WithCancel(context.Background())
	dst := make([]complex128, n)
	queued := make(chan error, 1)
	go func() {
		queued <- s.Do(ctx, Request{Rank: 1, Dims: [3]int{n},
			Src: testVec(n, 1), Dst: dst})
	}()
	time.Sleep(10 * time.Millisecond) // let both requests enqueue
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued request returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("executor wrote into cancelled request's dst[%d] = %v", i, v)
		}
	}
	// Release the gate; the first request (and the cancelled one's
	// claim-skip) must complete. The gate feeds every batch, including the
	// tombstone of the cancelled item.
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-s.stopped:
				return
			}
		}
	}()
	if err := <-first; err != nil {
		t.Fatalf("gated request failed: %v", err)
	}
	if c := s.Stats().Cancelled; c == 0 {
		t.Error("cancellation not counted")
	}
}

// TestDeadlineAtAdmission checks the Block policy respects the caller's
// context while waiting for queue space.
func TestDeadlineAtAdmission(t *testing.T) {
	gate := make(chan struct{})
	s := New(Options{Config: smallCfg(), QueueDepth: 1, MaxBatch: 1, Executors: 1})
	s.execGate = gate
	defer func() { close(gate); shutdownOrFail(t, s) }()

	n := 16
	submit := func(ctx context.Context) error {
		return s.Do(ctx, Request{Rank: 1, Dims: [3]int{n},
			Src: testVec(n, 0), Dst: make([]complex128, n)})
	}
	// Fill: one parked at the gate eventually, one in the queue.
	done1 := make(chan error, 1)
	done2 := make(chan error, 1)
	go func() { done1 <- submit(context.Background()) }()
	go func() { done2 <- submit(context.Background()) }()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := submit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked admission returned %v, want DeadlineExceeded", err)
	}
}

// TestCacheReuseAndEviction checks that repeated shapes hit the cache,
// overflowing shapes evict, and an evicted plan pinned by an in-flight
// request is closed only after release (the request still succeeds).
func TestCacheReuseAndEviction(t *testing.T) {
	s := New(Options{Config: smallCfg(), CacheCapacity: 2, MaxBatch: 1, Executors: 1})
	defer shutdownOrFail(t, s)
	ctx := context.Background()

	do := func(n int) error {
		return s.Do(ctx, Request{Rank: 1, Dims: [3]int{n},
			Src: testVec(n, 0), Dst: make([]complex128, n)})
	}
	for i := 0; i < 3; i++ {
		if err := do(32); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.Stats().Cache
	if cs.Misses != 1 || cs.Hits < 2 {
		t.Errorf("same-shape requests: hits=%d misses=%d, want ≥2 hits / 1 miss", cs.Hits, cs.Misses)
	}
	// Walk more shapes than the capacity: evictions must happen and every
	// request must still succeed.
	for _, n := range []int{16, 48, 80, 96} {
		if err := do(n); err != nil {
			t.Fatal(err)
		}
	}
	cs = s.Stats().Cache
	if cs.Evictions == 0 {
		t.Error("walking 5 shapes through a 2-plan cache evicted nothing")
	}
	if cs.Len > 2 {
		t.Errorf("cache len %d exceeds capacity 2", cs.Len)
	}
}

// TestSpans checks per-request queue/exec span tagging.
func TestSpans(t *testing.T) {
	rec := trace.New()
	s := New(Options{Config: smallCfg(), MaxBatch: 1, Executors: 1, Tracer: rec})
	defer shutdownOrFail(t, s)
	n := 32
	if err := s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
		Src: testVec(n, 0), Dst: make([]complex128, n)}); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) < 2 {
		t.Fatalf("got %d spans, want at least queue+exec", len(spans))
	}
	var haveQueue, haveExec bool
	req := spans[0].Req
	for _, sp := range rec.SpansFor(req) {
		switch sp.Name {
		case "queue":
			haveQueue = true
		case "exec":
			haveExec = true
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("span %q ends before it starts", sp.Name)
		}
	}
	if !haveQueue || !haveExec {
		t.Errorf("request %d missing spans: queue=%v exec=%v", req, haveQueue, haveExec)
	}
}

// TestDoValidation checks malformed requests fail synchronously.
func TestDoValidation(t *testing.T) {
	s := New(Options{Config: smallCfg()})
	defer shutdownOrFail(t, s)
	ctx := context.Background()
	cases := []Request{
		{Rank: 0, Dims: [3]int{4}},
		{Rank: 4, Dims: [3]int{4, 4, 4}},
		{Rank: 1, Dims: [3]int{4, 4}},
		{Rank: 1, Dims: [3]int{8}, Src: make([]complex128, 4), Dst: make([]complex128, 8)},
		{Rank: 2, Dims: [3]int{4, 4}, Src: make([]complex128, 16), Dst: make([]complex128, 15)},
	}
	for i, req := range cases {
		if err := s.Do(ctx, req); err == nil {
			t.Errorf("case %d: malformed request accepted", i)
		}
	}
	if got := s.Stats().Completed; got != 0 {
		t.Errorf("malformed requests completed: %d", got)
	}
}

// TestDoAfterShutdown checks post-shutdown submissions fail with ErrClosed.
func TestDoAfterShutdown(t *testing.T) {
	s := New(Options{Config: smallCfg()})
	shutdownOrFail(t, s)
	n := 16
	err := s.Do(context.Background(), Request{Rank: 1, Dims: [3]int{n},
		Src: testVec(n, 0), Dst: make([]complex128, n)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Shutdown returned %v, want ErrClosed", err)
	}
}

// numGoroutineStable polls NumGoroutine until it stops above the target or
// times out, absorbing asynchronous worker teardown.
func numGoroutineStable(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}
