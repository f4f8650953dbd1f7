package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/trace"
)

// ErrOverloaded is returned by Do under the Reject policy when the submit
// queue is full: explicit backpressure the caller can act on (shed load,
// retry with jitter) instead of silently queueing without bound.
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed is returned by Do once Shutdown has begun.
var ErrClosed = errors.New("serve: server closed")

// Policy selects what Do does when the submit queue is full.
type Policy int

const (
	// Block waits for queue space (or the request context's cancellation).
	Block Policy = iota
	// Reject fails fast with ErrOverloaded.
	Reject
)

// Options configure a Server. The zero value is usable: every field has a
// sensible default.
type Options struct {
	// QueueDepth bounds the submit queue (default 256). The queue is the
	// only buffering between callers and executors; its depth is the knob
	// that trades admission latency against burst absorption.
	QueueDepth int
	// MaxBatch caps how many same-shape 1D requests an executor takes off
	// the queue as one batch — one plan lookup and one settlement for all
	// of them (default 16; 1 disables coalescing).
	MaxBatch int
	// Executors is the number of goroutines executing batches (default 2).
	// Each executor runs one transform at a time on the lanes its plan
	// leases, so this is the number of concurrently running transforms,
	// not the compute width.
	Executors int
	// CacheCapacity bounds the plan cache (default 32 plans).
	CacheCapacity int
	// Policy selects Block (default) or Reject behaviour on a full queue.
	Policy Policy
	// Config is the execution configuration for plans built by this
	// server; the zero value means core.Default().
	Config core.Config
	// Tracer, when set, receives per-request "queue" and "exec" spans.
	Tracer *trace.Recorder
	// Logger, when set, receives request-scoped structured logs: every
	// failure at Warn, and a sampled subset of successes at Debug (the
	// same one-in-eight the latency histogram samples, so the hot path
	// stays clock-read free). nil disables logging.
	Logger *slog.Logger
	// ShardRunner, when set, executes Sharded rank-3 requests across a
	// worker fleet (the shard coordinator); requests with Sharded set are
	// rejected when it is nil. Sharded executions bypass the local plan
	// cache — the fleet's workers hold the warm plans.
	ShardRunner ShardRunner
}

// ShardRunner is the serving layer's view of the distributed shard tier:
// one rank-3 complex transform of dims[0]×dims[1]×dims[2], unnormalized,
// executed across a fleet. The request's context carries the deadline the
// coordinator propagates to every worker.
type ShardRunner interface {
	Transform(ctx context.Context, dst, src []complex128, dims [3]int, inverse bool) error
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.Executors == 0 {
		o.Executors = 2
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 32
	}
	if (o.Config == core.Config{}) {
		o.Config = core.Default()
	}
	o.Config.Tracer = nil // plan-level tracing is not part of serving
	return o
}

// Request is one transform to execute: Rank and Dims select the plan,
// Src/Dst the caller-owned buffers (len = product of dims; Dst is written
// only on success). Inverse requests are normalized. A complex rank-1
// request may alias Dst and Src (it is then served from a copy of its
// input); every other kind needs disjoint buffers.
//
// Real selects the real-input (r2c/c2r) pipeline: Dims describe the real
// grid (last dim even), and the buffers swap by direction — a forward real
// request reads RealSrc (product of dims reals) and writes Dst (the
// Hermitian half spectrum, last dim n/2+1); an inverse real request reads
// Src (the half spectrum) and writes RealDst. The unused pair must be nil
// or empty.
// Sharded routes a rank-3 complex request through the server's
// ShardRunner — one transform across the worker fleet — instead of the
// local plan cache. Sharded requests never coalesce.
type Request struct {
	Rank    int
	Dims    [3]int
	Inverse bool
	Real    bool
	Sharded bool
	Dst     []complex128
	Src     []complex128
	RealDst []float64
	RealSrc []float64
}

func (r Request) key(cfg core.Config) PlanKey {
	return PlanKey{Rank: r.Rank, D0: r.Dims[0], D1: r.Dims[1], D2: r.Dims[2], Real: r.Real, Cfg: cfg}
}

func (r *Request) shape() core.Shape {
	return core.Shape{Rank: r.Rank, Dims: r.Dims, Real: r.Real}
}

// item states: a pending item may be claimed by an executor or cancelled
// by its submitter, whichever CASes first. A cancelled item's buffers are
// never touched; a claimed item always gets exactly one done send.
const (
	statePending int32 = iota
	stateClaimed
	stateCancelled
)

type item struct {
	req      Request
	ctx      context.Context
	state    atomic.Int32
	done     chan error // buffered(1); executor sends exactly once if claimed
	id       uint64
	enqueued time.Time
}

// itemPool recycles items (and their done channels) across requests. An
// item may be pooled only when nothing else can still reference it: a
// never-enqueued item, or a claimed-and-settled one whose result has been
// received — and only with tracing off, since span emission touches the
// item after settlement. Withdrawn (cancelled) items are left to the GC:
// the queue or an executor may still hold them.
var itemPool = sync.Pool{New: func() any {
	return &item{done: make(chan error, 1)}
}}

func (s *Server) getItem(ctx context.Context, req *Request) *item {
	it := itemPool.Get().(*item)
	it.req = *req
	it.ctx = ctx
	it.state.Store(statePending)
	it.id = atomic.AddUint64(&s.nextID, 1)
	// Reading the clock costs as much as the rest of admission combined,
	// so the latency histogram samples one request in eight; span tagging
	// needs exact per-request stamps, so a tracer forces them.
	if s.opts.Tracer != nil || it.id&7 == 0 {
		it.enqueued = time.Now()
	} else {
		it.enqueued = time.Time{}
	}
	return it
}

func (s *Server) putItem(it *item) {
	if s.opts.Tracer != nil {
		return
	}
	it.req = Request{}
	it.ctx = nil
	itemPool.Put(it)
}

// Server admits, batches and executes FFT requests against a bounded plan
// cache. Create with New, submit with Do, stop with Shutdown.
type Server struct {
	opts  Options
	cache *PlanCache

	queue chan *item

	// admitMu is held for reading by every Do from its draining check
	// until its item is in the queue (or refused), and for writing by
	// Shutdown to close the queue: the close waits out admissions in
	// progress, and no admission can begin once it is pending.
	admitMu  sync.RWMutex
	draining atomic.Bool

	stopOnce sync.Once
	stopped  chan struct{}

	workersWG sync.WaitGroup

	nextID uint64 // atomic

	m metrics

	// execGate, when set by tests, is received from once per batch, between
	// an executor taking the first item and draining the rest: holding it
	// makes queue-full states, and the batch that forms, deterministic.
	execGate chan struct{}
	// noDrain, when set by tests, makes every request a batch of one.
	noDrain bool
}

// New starts a server: opts.Executors executor goroutines, all idle until
// requests arrive.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   NewPlanCache(opts.CacheCapacity),
		queue:   make(chan *item, opts.QueueDepth),
		stopped: make(chan struct{}),
	}
	s.workersWG.Add(opts.Executors)
	for i := 0; i < opts.Executors; i++ {
		go s.execute()
	}
	return s
}

// Cache exposes the server's plan cache (shared-handle constructors in the
// public facade pin plans through it).
func (s *Server) Cache() *PlanCache { return s.cache }

// Healthy reports whether the server is accepting requests.
func (s *Server) Healthy() bool { return !s.draining.Load() }

// Validate refuses a request the server would not run: a shape core's
// rule refuses (and, for a sharded request, core's sharded rule), or
// buffers whose lengths are not the shape's — the operand and result of
// its direction in their domain's slices, the other pair empty.
func (r *Request) Validate() error {
	s := r.shape()
	if err := s.Check(core.MaxElems); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if r.Sharded {
		if err := s.CheckSharded(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	src, dst := s.Lens(r.Inverse)
	// Src, RealSrc, Dst, RealDst: a real request's real side is its float64
	// slice.
	want := [4]int{src, 0, dst, 0}
	switch {
	case r.Real && r.Inverse:
		want[2], want[3] = 0, dst
	case r.Real:
		want[0], want[1] = 0, src
	}
	if got := [4]int{len(r.Src), len(r.RealSrc), len(r.Dst), len(r.RealDst)}; got != want {
		dims := r.Dims // a copy: r itself stays off the heap
		return fmt.Errorf("serve: a %v request (real %t, inverse %t) needs Src, RealSrc, Dst, RealDst of %v elements, got %v",
			dims[:r.Rank], r.Real, r.Inverse, want, got)
	}
	return nil
}

// Do submits one request and blocks until it executes, fails, or ctx is
// done. Admission honours the server's backpressure policy; after
// admission a cancelled context abandons the request at the next stage
// boundary (a request already claimed by an executor runs to completion).
// Do never drops work silently: every accepted request either executes or
// returns the caller's context error.
func (s *Server) Do(ctx context.Context, req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	// Admission: a Do that reads draining=false under the read lock may
	// enqueue safely — Shutdown sets the flag before asking for the write
	// lock it closes the queue under. TryRLock fails only once that request
	// is made, and the answer is then ErrClosed without waiting in line.
	if !s.admitMu.TryRLock() {
		return ErrClosed
	}
	if s.draining.Load() {
		s.admitMu.RUnlock()
		return ErrClosed
	}

	it := s.getItem(ctx, &req)
	s.m.submitted.Add(1)

	var refused error // why the item never reached the queue, if it did not
	if s.opts.Policy == Reject {
		select {
		case s.queue <- it:
		default:
			s.m.rejected.Add(1)
			refused = ErrOverloaded
		}
	} else {
		select {
		case s.queue <- it:
		case <-ctx.Done():
			s.m.cancelled.Add(1)
			refused = ctx.Err()
		}
	}
	s.admitMu.RUnlock()
	if refused != nil {
		s.putItem(it)
		return refused
	}

	if ctx.Done() == nil {
		// Uncancellable context: skip the two-way select on the hot path.
		err := <-it.done
		s.putItem(it)
		return err
	}
	select {
	case err := <-it.done:
		s.putItem(it)
		return err
	case <-ctx.Done():
		// Try to withdraw the request before an executor claims it; if
		// the executor wins the race the transform is already running
		// into our buffers, so wait it out. A withdrawn item stays out
		// of the pool: the queue or an executor may still reference it.
		if it.state.CompareAndSwap(statePending, stateCancelled) {
			s.m.cancelled.Add(1)
			s.spanQueue(it, time.Now())
			return ctx.Err()
		}
		err := <-it.done
		s.putItem(it)
		return err
	}
}

// sameBatch reports whether two requests can share one batched execution:
// identical shape, kind and direction (all requests already share the
// server's Config).
func sameBatch(a, b *item) bool {
	return a.req.Rank == b.req.Rank && a.req.Dims == b.req.Dims &&
		a.req.Inverse == b.req.Inverse && a.req.Real == b.req.Real &&
		!a.req.Sharded && !b.req.Sharded
}

// executor is one executor goroutine's private scratch.
type executor struct {
	realCoalesce []float64    // packed rows of a coalesced real batch …
	specCoalesce []complex128 // … and their half spectra
}

// execute is one executor goroutine. It takes a batch's first item off the
// queue, drains the same-shape rank-1 items already queued behind it (up to
// MaxBatch) into a slice it owns and runs them together; anything else runs
// as a batch of one. A different-shape item met while draining is held and
// starts the next batch. Exits once the queue is closed and nothing is held.
func (s *Server) execute() {
	defer s.workersWG.Done()
	x := new(executor)
	var items []*item
	var pending *item
	for {
		first := pending
		pending = nil
		if first == nil {
			var ok bool
			if first, ok = <-s.queue; !ok {
				return
			}
		}
		if s.execGate != nil {
			<-s.execGate
		}
		items = append(items, first)
		if first.req.Rank == 1 && !s.noDrain {
			yielded := false
		drain:
			for len(items) < s.opts.MaxBatch {
				select {
				case it, ok := <-s.queue:
					if !ok {
						break drain
					}
					if !sameBatch(it, first) {
						pending = it
						break drain
					}
					items = append(items, it)
				default:
					// Queue empty, batch short: yield once before running
					// it. Demand often sits in runnable-but-unscheduled
					// submitters; letting them enqueue is what fills batches
					// under many submitters and keeps clients that share a
					// thread taking turns. Idle, the yield returns at once.
					if yielded {
						break drain
					}
					yielded = true
					runtime.Gosched()
				}
			}
		}
		s.runBatch(x, items)
		// Settled items may already be reissued from itemPool: drop them.
		clear(items)
		items = items[:0]
	}
}

// runBatch claims a batch's live items, pins the plan, runs the transforms
// and settles every claimed item exactly once. items' backing array is the
// batch's: the claimed subset is compacted into its prefix.
func (s *Server) runBatch(x *executor, items []*item) {
	// Stage boundary: claim items whose submitters haven't cancelled.
	live := items[:0]
	var now time.Time
	if s.opts.Tracer != nil {
		now = time.Now()
	}
	for _, it := range items {
		if it.state.CompareAndSwap(statePending, stateClaimed) {
			live = append(live, it)
			s.spanQueue(it, now)
		}
	}
	if len(live) == 0 {
		return
	}
	s.m.batches.Add(1)
	s.m.batchedItems.Add(uint64(len(live)))

	if live[0].req.Sharded {
		// Sharded requests never coalesce (rank 3) and never touch
		// the local plan cache: the coordinator owns the fleet.
		it := live[0]
		var start time.Time
		if s.opts.Tracer != nil {
			start = time.Now()
		}
		var err error
		if s.opts.ShardRunner == nil {
			err = fmt.Errorf("serve: sharded request but no ShardRunner configured")
		} else {
			err = s.opts.ShardRunner.Transform(it.ctx, it.req.Dst, it.req.Src, it.req.Dims, it.req.Inverse)
		}
		if err == nil && it.req.Inverse {
			// The coordinator returns the raw unnormalized inverse;
			// scale here so every serve pipeline normalizes uniformly.
			scale := complex(1/float64(it.req.Dims[0]*it.req.Dims[1]*it.req.Dims[2]), 0)
			for i := range it.req.Dst {
				it.req.Dst[i] *= scale
			}
		}
		if s.opts.Tracer != nil {
			s.spanExec(it, start, time.Now())
		}
		if err == nil {
			s.m.execShard.Add(1)
		}
		s.settle(live, err)
		return
	}

	key := live[0].req.key(s.opts.Config)
	plan, release, err := s.cache.Get(key)
	if err != nil {
		s.settle(live, err)
		return
	}
	var start time.Time
	if s.opts.Tracer != nil {
		start = time.Now()
	}
	switch {
	case len(live) > 1 && key.Real:
		// Coalesced real pencils: pack the per-request real rows and
		// half spectra into contiguous scratch, run one batched
		// pipeline sweep, scatter the results back.
		n, mc := plan.p.Len(), plan.p.SpectrumLen()
		inverse := live[0].req.Inverse
		if cap(x.realCoalesce) < n*len(live) {
			x.realCoalesce = make([]float64, n*len(live))
		}
		if cap(x.specCoalesce) < mc*len(live) {
			x.specCoalesce = make([]complex128, mc*len(live))
		}
		re := x.realCoalesce[:n*len(live)]
		spec := x.specCoalesce[:mc*len(live)]
		for i, it := range live {
			if inverse {
				copy(spec[i*mc:(i+1)*mc], it.req.Src)
			} else {
				copy(re[i*n:(i+1)*n], it.req.RealSrc)
			}
		}
		err = plan.ExecuteRealBatch(spec, re, len(live), inverse)
		if err == nil {
			for i, it := range live {
				if inverse {
					copy(it.req.RealDst, re[i*n:(i+1)*n])
				} else {
					copy(it.req.Dst, spec[i*mc:(i+1)*mc])
				}
			}
		}
	case key.Real:
		it := live[0]
		if it.req.Inverse {
			err = plan.ExecuteReal(it.req.Src, it.req.RealDst, true)
		} else {
			err = plan.ExecuteReal(it.req.Dst, it.req.RealSrc, false)
		}
	default:
		// Complex: every item runs out of place between its own Src and
		// Dst (rank-2/3 batches hold one item). A coalesced rank-1 batch
		// shares the plan lookup and this hand-off, nothing else, so an
		// item's bits do not depend on what it was batched with.
		for _, it := range live {
			if err = executeComplex(plan, &it.req); err != nil {
				break
			}
		}
	}
	// The spans and the execution count go in before settle wakes the Do
	// calls (here and on the sharded path above), so a returned request has
	// its exec span and is counted.
	if s.opts.Tracer != nil {
		end := time.Now()
		for _, it := range live {
			s.spanExec(it, start, end)
		}
	}
	if err == nil {
		if key.Real {
			s.m.execReal.Add(1)
		} else {
			s.m.execComplex.Add(1)
		}
	}
	s.settle(live, err)
	release()
}

// aliasScratch holds input copies for rank-1 requests whose Dst overlaps
// their Src. Pooled rather than held by the executor so one large aliased
// request does not pin its size in every executor for good.
var aliasScratch = sync.Pool{New: func() any { return new([]complex128) }}

// executeComplex runs one complex item through plan. The plans are out of
// place, so a rank-1 request with overlapping buffers is transformed from a
// copy of its input — the only copy on the rank-1 path.
func executeComplex(plan *Plan, req *Request) error {
	if req.Rank != 1 || !overlaps(req.Dst, req.Src) {
		return plan.Execute(req.Dst, req.Src, req.Inverse)
	}
	buf := aliasScratch.Get().(*[]complex128)
	defer aliasScratch.Put(buf)
	*buf = append((*buf)[:0], req.Src...)
	return plan.Execute(req.Dst, *buf, req.Inverse)
}

// overlaps reports whether a and b share any element's memory.
func overlaps(a, b []complex128) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	size := unsafe.Sizeof(a[0])
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// settle completes every claimed item in the slice with err, recording
// latency and traffic metrics.
func (s *Server) settle(items []*item, err error) {
	now := time.Now()
	if err != nil {
		s.m.failed.Add(uint64(len(items)))
	} else {
		s.m.completed.Add(uint64(len(items)))
		var bytesC, bytesR, bytesS uint64
		for _, it := range items {
			switch {
			case it.req.Sharded:
				// Same end-to-end accounting as complex requests; the
				// exchange traffic on top is counted byte-exactly by the
				// fft_exchange_* families.
				bytesS += uint64(32 * len(it.req.Src))
			case it.req.Real:
				// Real requests move 8 bytes per real element on one side
				// and 16 per half-spectrum element on the other; exactly one
				// of each buffer pair is populated per direction.
				bytesR += uint64(8*(len(it.req.RealSrc)+len(it.req.RealDst)) +
					16*(len(it.req.Src)+len(it.req.Dst)))
			default:
				// One request reads Src and writes Dst once: 32 bytes moved
				// per complex element end to end.
				bytesC += uint64(32 * len(it.req.Src))
			}
		}
		s.m.bytesMoved.Add(bytesC + bytesR + bytesS)
		if bytesC > 0 {
			s.m.bytesComplex.Add(bytesC)
		}
		if bytesR > 0 {
			s.m.bytesReal.Add(bytesR)
		}
		if bytesS > 0 {
			s.m.bytesShard.Add(bytesS)
		}
	}
	for _, it := range items {
		if !it.enqueued.IsZero() {
			s.m.observeLatency(now.Sub(it.enqueued))
		}
		if log := s.opts.Logger; log != nil {
			if err != nil {
				log.Warn("fft request failed",
					"req", it.id, "rank", it.req.Rank, "dims", dimsString(it.req),
					"inverse", it.req.Inverse, "real", it.req.Real, "sharded", it.req.Sharded,
					"trace_id", trace.IDFromContext(it.ctx), "err", err)
			} else if !it.enqueued.IsZero() {
				// Sampled success log: exactly the requests that carry an
				// admission timestamp, so latency comes for free.
				log.Debug("fft request done",
					"req", it.id, "rank", it.req.Rank, "dims", dimsString(it.req),
					"inverse", it.req.Inverse, "real", it.req.Real, "sharded", it.req.Sharded,
					"trace_id", trace.IDFromContext(it.ctx),
					"latency_ms", float64(now.Sub(it.enqueued).Nanoseconds())/1e6)
			}
		}
		it.done <- err
	}
}

// dimsString renders a request's shape for logs: only the dims its rank
// uses ("1024", "512x512", "64x64x64").
func dimsString(req Request) string {
	switch req.Rank {
	case 1:
		return fmt.Sprintf("%d", req.Dims[0])
	case 2:
		return fmt.Sprintf("%dx%d", req.Dims[0], req.Dims[1])
	}
	return fmt.Sprintf("%dx%dx%d", req.Dims[0], req.Dims[1], req.Dims[2])
}

func (s *Server) spanQueue(it *item, end time.Time) {
	if s.opts.Tracer == nil {
		return
	}
	s.opts.Tracer.EmitSpan(trace.Span{Req: it.id, Name: "queue", Start: it.enqueued, End: end})
}

func (s *Server) spanExec(it *item, start, end time.Time) {
	if s.opts.Tracer == nil {
		return
	}
	s.opts.Tracer.EmitSpan(trace.Span{Req: it.id, Name: "exec", Start: start, End: end})
}

// Shutdown gracefully drains the server: admission stops immediately
// (subsequent Do calls return ErrClosed), every already-accepted request
// runs to completion, executors exit, and the plan cache closes every
// plan. Returns nil once fully drained, or ctx.Err() if ctx ends
// first (the drain continues in the background). Safe to call repeatedly
// and concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		go func() {
			s.admitMu.Lock() // every admitted Do has finished enqueueing
			close(s.queue)   // executors drain what is queued or held, then exit
			s.admitMu.Unlock()
			s.workersWG.Wait()
			s.cache.Purge() // close the idle plans
			close(s.stopped)
		}()
	})
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a point-in-time snapshot of the server's counters.
func (s *Server) Stats() Snapshot {
	snap := s.m.snapshot()
	snap.QueueDepth = len(s.queue)
	snap.QueueCapacity = cap(s.queue)
	snap.Healthy = s.Healthy()
	cs := s.cache.Stats()
	snap.Cache = CacheSnapshot{
		Len: cs.Len, Capacity: cs.Capacity,
		Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
	}
	return snap
}
