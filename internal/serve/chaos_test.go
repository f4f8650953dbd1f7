package serve

// Seeded chaos test of the serving layer. A seed expands into a server
// configuration and a weighted sequence of actions — mixed-shape submits,
// submits whose context is already cancelled, expires after 50µs or is
// cancelled mid-flight, a Reject-policy overload burst against gated
// executors, Shutdown mid-stream — and after the run every Do must have
// returned an allowed result with its buffer whole, the server's counters
// must balance against what the callers saw, and the goroutine count must be
// back where it started. The action list is a pure function of the seed;
// chaosRegressionSeeds is replayed on every run and one fresh seed is logged,
// to be added to the list if it ever fails.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// chaosRegressionSeeds between them cover both policies, every MaxBatch and
// QueueDepth drawn below, and runs with and without a mid-stream Shutdown.
var chaosRegressionSeeds = []int64{1, 5, 14, 16, 21, 24, 33, 37, 38}

const (
	chaosActions = 400
	chaosTail    = 16 // actions still issued after a mid-stream Shutdown
	chaosTimeout = 60 * time.Second
)

// chaosSentinel fills every Dst before submission; no transform of the test
// inputs produces it, so an all-sentinel Dst was never written.
const chaosSentinel = complex(12345.678, -8765.4321)

// chaosSentinelReal fills every RealDst the same way.
const chaosSentinelReal = 12345.678

// chaosShape is one request kind: a template whose input is shared read-only
// by every submission, and the bits a served answer must have — in want, or
// in wantReal for a real inverse, which writes RealDst.
type chaosShape struct {
	req      Request
	want     []complex128
	wantReal []float64
}

// chaosShapes builds the request mix — complex rank-1 of three sizes (one
// inverse), real rank-1, one complex rank-2, a real rank-3 forward and a
// real rank-2 inverse, whose plans run concurrent transforms whenever two
// executors hold them — with each expected output taken from the plan
// itself, which the served result equals bit for bit however the request
// was batched.
func chaosShapes(t *testing.T) []chaosShape {
	t.Helper()
	pc := NewPlanCache(8)
	defer pc.Purge()
	reqs := []Request{
		{Rank: 1, Dims: [3]int{64}, Src: testVec(64, 1)},
		{Rank: 1, Dims: [3]int{256}, Inverse: true, Src: testVec(256, 2)},
		{Rank: 1, Dims: [3]int{1024}, Src: testVec(1024, 3)},
		{Rank: 1, Dims: [3]int{128}, Real: true, RealSrc: realVec(128, 4)},
		{Rank: 2, Dims: [3]int{16, 32}, Src: testVec(16*32, 5)},
		{Rank: 3, Dims: [3]int{8, 8, 16}, Real: true, RealSrc: realVec(8*8*16, 6)},
		{Rank: 2, Dims: [3]int{8, 16}, Real: true, Inverse: true, Src: testVec(8*9, 7)},
	}
	shapes := make([]chaosShape, len(reqs))
	for i, req := range reqs {
		p, release, err := pc.Get(req.key(smallCfg()))
		if err != nil {
			t.Fatal(err)
		}
		s := chaosShape{req: req}
		switch {
		case req.Real && req.Inverse:
			s.wantReal = make([]float64, p.Len())
			err = p.ExecuteReal(req.Src, s.wantReal, true)
		case req.Real:
			s.want = make([]complex128, p.Core().SpectrumLen())
			err = p.ExecuteReal(s.want, req.RealSrc, false)
		default:
			s.want = make([]complex128, p.Len())
			err = p.Execute(s.want, req.Src, req.Inverse)
		}
		release()
		if err != nil {
			t.Fatal(err)
		}
		shapes[i] = s
	}
	return shapes
}

// chaosCall is one Do: what was asked, under which context, and what came back.
type chaosCall struct {
	shape   *chaosShape
	ctx     context.Context
	dst     []complex128
	realDst []float64
	err     error
}

func TestChaos(t *testing.T) {
	shapes := chaosShapes(t)
	for _, seed := range chaosRegressionSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed, shapes) })
	}
	fresh := time.Now().UnixNano()
	t.Run("fresh", func(t *testing.T) {
		t.Logf("fresh seed %d: add it to chaosRegressionSeeds if this fails", fresh)
		runChaos(t, fresh, shapes)
	})
}

func runChaos(t *testing.T, seed int64, shapes []chaosShape) {
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	opts := Options{Config: smallCfg(),
		Executors:  1 + rng.Intn(3),
		MaxBatch:   []int{1, 4, 16}[rng.Intn(3)],
		QueueDepth: []int{2, 8, 64}[rng.Intn(3)],
		Policy:     Policy(rng.Intn(2)),
	}
	s := New(opts)

	// Under Reject a keeper feeds execGate so executors run freely until an
	// overload action holds it back; Block runs are ungated.
	hold := make(chan chan struct{})
	keeperDone := make(chan struct{})
	if opts.Policy == Reject {
		gate := make(chan struct{})
		s.execGate = gate
		go func() {
			defer close(keeperDone)
			for {
				select {
				case gate <- struct{}{}:
				case resume := <-hold:
					<-resume
				case <-s.stopped:
					return
				}
			}
		}()
	} else {
		close(keeperDone)
	}

	var (
		wg       sync.WaitGroup
		calls    []*chaosCall
		inFlight = make(chan struct{}, 32) // bounds concurrent submitters
	)
	// launch submits one request of a seed-chosen shape on its own goroutine;
	// then, when set, runs on that goroutine once Do has returned.
	launch := func(ctx context.Context, then func(error)) {
		c := &chaosCall{shape: &shapes[rng.Intn(len(shapes))], ctx: ctx}
		c.dst = make([]complex128, len(c.shape.want))
		for i := range c.dst {
			c.dst[i] = chaosSentinel
		}
		c.realDst = make([]float64, len(c.shape.wantReal))
		for i := range c.realDst {
			c.realDst[i] = chaosSentinelReal
		}
		calls = append(calls, c)
		req := c.shape.req
		if c.shape.wantReal != nil {
			req.RealDst = c.realDst
		} else {
			req.Dst = c.dst
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.err = s.Do(ctx, req)
			if then != nil {
				then(c.err)
			}
		}()
	}
	submit := func(ctx context.Context, cancel context.CancelFunc) {
		inFlight <- struct{}{}
		launch(ctx, func(error) {
			if cancel != nil {
				cancel()
			}
			<-inFlight
		})
	}

	type action struct {
		weight int
		run    func()
	}
	bg := context.Background()
	submits := []action{
		{240, func() { submit(bg, nil) }},
		{32, func() { // already cancelled
			ctx, cancel := context.WithCancel(bg)
			cancel()
			submit(ctx, nil)
		}},
		{40, func() { // expires about when an executor would claim it
			submit(context.WithTimeout(bg, 50*time.Microsecond))
		}},
		{48, func() { // cancelled mid-flight, a seed-chosen number of yields in
			ctx, cancel := context.WithCancel(bg)
			yields := rng.Intn(64)
			submit(ctx, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < yields; i++ {
					runtime.Gosched()
				}
				cancel()
			}()
		}},
	}
	midStream := false
	var shutdownErr error
	shutdownDone := make(chan struct{})
	all := append([]action{
		{6, func() { // overload: hold the gate, overfill the server, let go
			if opts.Policy != Reject {
				submit(bg, nil)
				return
			}
			resume := make(chan struct{})
			hold <- resume
			defer close(resume)
			// With the gate held the server absorbs at most the queue, one
			// batch plus a held-over item per executor, and as much again in
			// a dispatch stage; Reject admission never blocks, so at least
			// four of the burst must come back ErrOverloaded meanwhile.
			burst := opts.QueueDepth + (opts.Executors+1)*(opts.MaxBatch+1) + 4
			results := make(chan error, burst)
			for i := 0; i < burst; i++ {
				launch(bg, func(err error) { results <- err })
			}
			timeout := time.After(chaosTimeout)
			for rejected := 0; rejected < 4; {
				select {
				case err := <-results:
					if errors.Is(err, ErrOverloaded) {
						rejected++
					}
				case <-timeout:
					t.Errorf("overload burst of %d saw %d rejections in %v", burst, rejected, chaosTimeout)
					return
				}
			}
		}},
		{1, func() {
			midStream = true
			go func() {
				defer close(shutdownDone)
				ctx, cancel := context.WithTimeout(bg, chaosTimeout)
				defer cancel()
				shutdownErr = s.Shutdown(ctx)
			}()
		}},
	}, submits...)

	pick := func(from []action) func() {
		total := 0
		for _, a := range from {
			total += a.weight
		}
		r := rng.Intn(total)
		for _, a := range from {
			if r -= a.weight; r < 0 {
				return a.run
			}
		}
		panic("unreachable")
	}
	for i := 0; i < chaosActions && !midStream; i++ {
		pick(all)()
	}
	if midStream {
		// The keeper exits with the server, so the tail no longer gates.
		for i := 0; i < chaosTail; i++ {
			pick(submits)()
		}
	} else {
		close(shutdownDone)
	}

	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(chaosTimeout):
		t.Fatalf("seed %d %s: not every Do returned within %v", seed, chaosOpts(opts), chaosTimeout)
	}
	<-shutdownDone
	if shutdownErr != nil {
		t.Errorf("mid-stream Shutdown: %v", shutdownErr)
	}
	shutdownOrFail(t, s)
	<-keeperDone

	var ok, rejected, cancelled, closed uint64
	for i, c := range calls {
		untouched := true
		for _, v := range c.dst {
			untouched = untouched && v == chaosSentinel
		}
		for _, v := range c.realDst {
			untouched = untouched && v == chaosSentinelReal
		}
		correct := bitsEqual(c.dst, c.shape.want) && slices.Equal(c.realDst, c.shape.wantReal)
		switch {
		case c.err == nil:
			ok++
			if !correct {
				t.Errorf("call %d (%v): returned nil with a wrong Dst", i, c.shape.req.Dims)
			}
		case errors.Is(c.err, ErrOverloaded):
			rejected++
			if opts.Policy != Reject || !untouched {
				t.Errorf("call %d: ErrOverloaded under policy %d, Dst untouched = %v", i, opts.Policy, untouched)
			}
		case errors.Is(c.err, ErrClosed):
			closed++
			if !midStream || !untouched {
				t.Errorf("call %d: ErrClosed with mid-stream shutdown = %v, Dst untouched = %v", i, midStream, untouched)
			}
		case c.ctx.Err() != nil && c.err == c.ctx.Err():
			cancelled++
			if !untouched && !correct {
				t.Errorf("call %d (%v): returned %v with a partially written Dst", i, c.shape.req.Dims, c.err)
			}
		default:
			t.Errorf("call %d: unexpected result %v", i, c.err)
		}
	}
	snap := s.Stats()
	if snap.Submitted != snap.Completed+snap.Failed+snap.Cancelled+snap.Rejected {
		t.Errorf("counters do not balance: submitted %d ≠ completed %d + failed %d + cancelled %d + rejected %d",
			snap.Submitted, snap.Completed, snap.Failed, snap.Cancelled, snap.Rejected)
	}
	if snap.Submitted != uint64(len(calls))-closed || snap.Completed != ok || snap.Failed != 0 ||
		snap.Cancelled != cancelled || snap.Rejected != rejected {
		t.Errorf("server counted submitted %d completed %d failed %d cancelled %d rejected %d; callers saw %d calls: %d ok, %d cancelled, %d rejected, %d closed",
			snap.Submitted, snap.Completed, snap.Failed, snap.Cancelled, snap.Rejected,
			len(calls), ok, cancelled, rejected, closed)
	}
	if got := numGoroutineStable(t, baseline); got > baseline {
		t.Errorf("goroutines leaked: %d running, baseline %d", got, baseline)
	}
	t.Logf("seed %d %s mid-stream shutdown %v: %d calls = %d ok, %d cancelled, %d rejected, %d closed; %d batches",
		seed, chaosOpts(opts), midStream, len(calls), ok, cancelled, rejected, closed, snap.Batches)
}

// chaosOpts is the seed-drawn part of a run's Options, for log lines.
func chaosOpts(o Options) string {
	return fmt.Sprintf("{executors %d, maxbatch %d, queue %d, policy %d}", o.Executors, o.MaxBatch, o.QueueDepth, o.Policy)
}
