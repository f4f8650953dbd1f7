package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/serve"
)

const (
	serveN    = 4096 // n=1024 swung 111k–139k req/s between identical runs; 4096 held within 4 %
	servePool = 64   // distinct inputs, so no request repeats its neighbour's data
	// verifyEvery: untraced ops compare every 8th response bitwise (traced
	// ops compare all); the rest are counted by status and length.
	verifyEvery = 8
)

// serve1dWL drives an in-process serve.Server with default Options from two
// closed-loop clients: admission → dispatch → coalesce → plan cache →
// executor around an L2-resident transform.
type serve1dWL struct {
	seed int64
	t    *xform // the same shape through the public API: reference and repro.* layer
	in   [][]complex128
	// Two bitwise-exact answers per input: the server answers a lone
	// request with the six-step plan (what repro.NewFFT1D builds) and a
	// coalesced batch with the direct fft1d plan; the two differ in the
	// last bits. A response must equal one of them exactly.
	want      [][]complex128
	wantBatch [][]complex128
	out       [][]complex128 // one destination per client
	srv       *serve.Server

	before serve.Snapshot // counters when the standing set-up finished
}

func (w *serve1dWL) ref() *xform         { return w.t }
func (w *serve1dWL) clients() int        { return 2 }
func (w *serve1dWL) bytesPerOp() float64 { return 2 * 16 * serveN } // payload in + out
func (w *serve1dWL) peakRSSMiB() float64 { return vmHWMMiB(os.Getpid()) }

// setupReps is 31 here: one set-up is 0.15 ms, and a median of a few of
// those moves by tens of percent between identical runs.
func (w *serve1dWL) setupReps() int { return 31 }

func (w *serve1dWL) prepare(seed int64) error {
	w.seed = seed
	w.t = newXform(shape{"c1d", [3]int{1, 1, serveN}}, seed)
	w.in = make([][]complex128, servePool)
	w.want = make([][]complex128, servePool)
	w.wantBatch = make([][]complex128, servePool)
	for i := range w.in {
		w.in[i] = make([]complex128, serveN)
		fillComplex(w.in[i], seed, 100+uint64(i))
		w.want[i] = make([]complex128, serveN)
		w.wantBatch[i] = make([]complex128, serveN)
	}
	w.in[0] = w.t.x // input 0 is the reference plan's input, so its spot check covers the server
	w.out = [][]complex128{make([]complex128, serveN), make([]complex128, serveN)}
	return nil
}

func (w *serve1dWL) request(c, idx int) serve.Request {
	return serve.Request{Rank: 1, Dims: [3]int{serveN}, Src: w.in[idx], Dst: w.out[c]}
}

func (w *serve1dWL) setup() (time.Duration, error) {
	t0 := time.Now()
	w.srv = serve.New(serve.Options{})
	if err := w.srv.Do(context.Background(), w.request(0, 0)); err != nil {
		return 0, err
	}
	d := time.Since(t0)

	// Off the clock: the reference plan, the expected output of every pool
	// input, and the first response against both the reference (bitwise)
	// and the DFT definition (spot check inside firstRoundTrip).
	w.t.close()
	if _, err := w.t.firstRoundTrip(w.seed); err != nil {
		return d, fmt.Errorf("reference plan: %w", err)
	}
	direct := fft1d.NewPlan(serveN)
	for i := range w.in {
		if err := w.t.forwardOf(w.want[i], w.in[i]); err != nil {
			return d, err
		}
		direct.Transform(w.wantBatch[i], w.in[i], fft1d.Forward)
	}
	if err := w.check(0, 0); err != nil {
		return d, err
	}
	w.before = w.srv.Stats()
	return d, nil
}

func (w *serve1dWL) op(c, n int, rec *recorder) (time.Duration, error) {
	idx := (n*w.clients() + c) % servePool
	req := w.request(c, idx)
	hop := rec.begin("op", -1, n)
	h := rec.begin("do", hop, n)
	t0 := time.Now()
	err := w.srv.Do(context.Background(), req)
	d := time.Since(t0)
	rec.end(h)
	rec.end(hop)
	if err != nil {
		return d, err
	}
	if rec != nil || n%verifyEvery == 0 {
		return d, w.check(c, idx)
	}
	return d, nil
}

// check compares client c's response to input idx with both exact answers.
func (w *serve1dWL) check(c, idx int) error {
	i := firstDiff(w.out[c], w.want[idx])
	if i >= 0 && firstDiff(w.out[c], w.wantBatch[idx]) >= 0 {
		return fmt.Errorf("response to input %d matches neither in-process plan (six-step differs at element %d)", idx, i)
	}
	return nil
}

func (w *serve1dWL) teardown() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx) // a drain that overruns is abandoned with the process
		cancel()
		w.srv = nil
	}
	w.t.close()
}

// layers reads the serve family off a traced pass: the `do` spans, the
// server's own counters as deltas over the pass, and the same plan executed
// directly so the serving overhead is a difference of two medians.
func (w *serve1dWL) layers(m metrics, p *pass) {
	after := w.srv.Stats()
	do := median(spanDurations(p.recs, "do")) * 1e3
	m["serve.do_us_p50"] = do
	m["serve.avg_batch"] = ratio(float64(after.BatchedItems-w.before.BatchedItems), float64(after.Batches-w.before.Batches))
	hits := float64(after.Cache.Hits - w.before.Cache.Hits)
	m["serve.plan_cache_hit_ratio"] = ratio(hits, hits+float64(after.Cache.Misses-w.before.Cache.Misses))

	key := serve.PlanKey{Rank: 1, D0: serveN, Cfg: core.Default()}
	const gets = 20000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		_, release, err := w.srv.Cache().Get(key)
		if err != nil {
			return // left unmeasured; checkComplete reports it
		}
		release()
	}
	m["serve.plan_get_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / gets

	plan, release, err := w.srv.Cache().Get(key)
	if err != nil {
		return
	}
	defer release()
	var exec []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := plan.Execute(w.out[0], w.in[i%servePool], false); err != nil {
			return
		}
		exec = append(exec, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["serve.execute_us_p50"] = median(exec)
	m["serve.overhead_us_p50"] = do - median(exec)
}
