package shard

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// CoordinatorOptions configures a shard coordinator.
type CoordinatorOptions struct {
	// Nodes are the fleet's worker base URLs (e.g. "http://host:8123").
	Nodes []string

	// Workers caps how many nodes one transform shards across (0 = all).
	// The effective shard count shrinks to the largest value ≤ the cap
	// that divides both k and n.
	Workers int

	// ChunkElems is the scatter/gather/exchange chunk size in complex
	// elements (default 128Ki = 2 MiB payloads).
	ChunkElems int

	// Mu pins the fleet's block length (0 = machine.PreferredMu); it must
	// match a single node's plan for bitwise-identical results.
	Mu int

	// Retries is the per-chunk retry budget beyond the first attempt
	// (default 4; -1 disables). Backoff is the initial retry delay,
	// doubling per attempt (default 10ms). /shard/run never retries —
	// it is not idempotent.
	Retries int
	Backoff time.Duration

	Client  Doer
	Metrics *obs.ShardMetrics // default obs.ShardDefault
	Tracer  *trace.Recorder

	// TraceCapacity bounds how many finished transforms' trace records
	// (fleet, clock offsets, coordinator spans) the coordinator retains
	// for WriteMergedTrace (default 32; negative disables tracing).
	TraceCapacity int

	// Logger receives job-level structured logs. nil disables logging.
	Logger *slog.Logger
}

const defaultTraceCapacity = 32

// Coordinator drives sharded transforms over a worker fleet. Safe for
// concurrent use; same-shape transforms serialize on a per-shape lock so
// two jobs can never hold complementary halves of the fleet's warm plans
// (which would deadlock both until their deadlines).
type Coordinator struct {
	opts    CoordinatorOptions
	tr      *transport // retrying: begin/chunk/result/end
	trOnce  *transport // single-attempt: run
	metrics *obs.ShardMetrics
	tracer  *trace.Recorder

	nonce string
	seq   atomic.Uint64

	mu         sync.Mutex
	shapeLocks map[Shape]*sync.Mutex

	// Bounded store of finished transforms' trace records, oldest evicted
	// first; WriteMergedTrace reads it to assemble fleet timelines.
	traceMu    sync.Mutex
	traces     map[string]*traceRecord
	traceOrder []string
	traceCap   int
}

// traceRecord is what the coordinator must remember about one traced
// transform to merge the fleet's timelines after the fact: who took part,
// how far each node's clock was off, and the coordinator's own spans.
type traceRecord struct {
	ID      string
	Shape   Shape
	Fleet   []string
	Offsets []int64 // per fleet member, ns (worker clock − coordinator clock)
	Spans   []trace.Span
	Failed  bool
}

// NewCoordinator builds a coordinator for the given fleet.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one node")
	}
	if opts.ChunkElems <= 0 {
		opts.ChunkElems = defaultChunkElems
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.ShardDefault
	}
	traceCap := opts.TraceCapacity
	if traceCap == 0 {
		traceCap = defaultTraceCapacity
	} else if traceCap < 0 {
		traceCap = 0
	}
	return &Coordinator{
		opts:       opts,
		tr:         newTransport(opts.Client, opts.Retries, opts.Backoff, opts.Metrics),
		trOnce:     newTransport(opts.Client, -1, opts.Backoff, opts.Metrics),
		metrics:    opts.Metrics,
		tracer:     opts.Tracer,
		nonce:      fmt.Sprintf("j%x", time.Now().UnixNano()),
		shapeLocks: make(map[Shape]*sync.Mutex),
		traces:     make(map[string]*traceRecord),
		traceCap:   traceCap,
	}, nil
}

// storeTrace retains one finished transform's trace record, evicting the
// oldest past the capacity.
func (c *Coordinator) storeTrace(rec *traceRecord) {
	if c.traceCap <= 0 || rec.ID == "" {
		return
	}
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	if _, dup := c.traces[rec.ID]; !dup {
		c.traceOrder = append(c.traceOrder, rec.ID)
	}
	c.traces[rec.ID] = rec
	for len(c.traceOrder) > c.traceCap {
		evict := c.traceOrder[0]
		c.traceOrder = c.traceOrder[1:]
		delete(c.traces, evict)
	}
}

// TraceIDs lists the retained trace IDs, oldest first.
func (c *Coordinator) TraceIDs() []string {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return append([]string(nil), c.traceOrder...)
}

// LastTraceID returns the most recently retained trace ID ("" if none).
func (c *Coordinator) LastTraceID() string {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	if len(c.traceOrder) == 0 {
		return ""
	}
	return c.traceOrder[len(c.traceOrder)-1]
}

// WriteMergedTrace gathers every fleet member's slice of one distributed
// trace over /shard/trace?id= and writes the merged Chrome trace_event
// timeline: the coordinator's lane first, then one process lane per
// worker, clock-aligned with the offsets measured at /shard/begin.
func (c *Coordinator) WriteMergedTrace(ctx context.Context, w io.Writer, id string) error {
	c.traceMu.Lock()
	rec := c.traces[id]
	c.traceMu.Unlock()
	if rec == nil {
		return errf(KindProtocol, "trace", "", "unknown trace %q", id)
	}
	nodes := make([]trace.NodeTrace, len(rec.Fleet)+1)
	nodes[0] = trace.NodeTrace{Name: "coordinator", Spans: rec.Spans}
	err := forEach(rec.Fleet, func(i int, node string) error {
		var nt trace.NodeTrace
		url := fmt.Sprintf("%s/shard/trace?id=%s", node, id)
		if err := c.tr.getJSON(ctx, "trace", node, url, &nt); err != nil {
			return err
		}
		nt.Name = fmt.Sprintf("worker %d (%s)", i, node)
		nt.OffsetNS = rec.Offsets[i]
		nodes[i+1] = nt
		return nil
	})
	if err != nil {
		return err
	}
	return trace.WriteChromeNodes(w, nodes)
}

func (c *Coordinator) shapeLock(s Shape) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.shapeLocks[s]
	if l == nil {
		l = &sync.Mutex{}
		c.shapeLocks[s] = l
	}
	return l
}

// ShardCount returns the effective shard count for a shape: the largest
// value ≤ the fleet size (and the Workers cap) dividing both k and n.
func (c *Coordinator) ShardCount(k, n int) int {
	sk := len(c.opts.Nodes)
	if c.opts.Workers > 0 && c.opts.Workers < sk {
		sk = c.opts.Workers
	}
	for sk > 1 && (k%sk != 0 || n%sk != 0) {
		sk--
	}
	return sk
}

// forEach runs f once per fleet member (or slab plan) concurrently and
// returns the first error (typed *Error preserved).
func forEach[T any](items []T, f func(i int, it T) error) error {
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it T) {
			defer wg.Done()
			errs[i] = f(i, it)
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scatterStreams bounds how many chunk transfers one worker's scatter or
// gather keeps in flight: enough to pipeline CRC, kernel copies and TCP,
// without swamping a small fleet's listeners.
const scatterStreams = 4

// forEachChunk runs f over [0, total) in chunk-sized spans with at most
// par transfers in flight, returning the first error.
func forEachChunk(total, chunk, par int, f func(off, count int) error) error {
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for off := 0; off < total; off += chunk {
		count := min(chunk, total-off)
		sem <- struct{}{}
		wg.Add(1)
		go func(off, count int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := f(off, count); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(off, count)
	}
	wg.Wait()
	return first
}

// Transform computes dst = DFT_{k×n×m}(src) (sign = fft1d.Forward or
// fft1d.Inverse, unnormalized) across the fleet: begin on every worker,
// scatter input z-slabs, trigger the runs (the W² exchange flows worker
// to worker, overlapped with their compute), gather output y-slabs.
// dst and src must be distinct k·n·m-element slices.
func (c *Coordinator) Transform(ctx context.Context, dst, src []complex128, k, n, m, sign int) error {
	if len(src) != k*n*m || len(dst) != len(src) {
		return errf(KindProtocol, "begin", "", "size mismatch: len(src)=%d len(dst)=%d want %d", len(src), len(dst), k*n*m)
	}
	if sign != -1 && sign != 1 {
		return errf(KindProtocol, "begin", "", "sign must be ±1, got %d", sign)
	}
	mu := c.opts.Mu
	if mu == 0 {
		mu = machine.PreferredMu(m)
	}
	sk := c.ShardCount(k, n)
	g, err := newGeom(k, n, m, sk, mu)
	if err != nil {
		return errf(KindProtocol, "begin", "", "%v", err)
	}
	shape := Shape{k, n, m}
	fleet := FleetOrder(shape, c.opts.Nodes)[:sk]

	lock := c.shapeLock(shape)
	lock.Lock()
	defer lock.Unlock()

	c.metrics.JobsStarted.Add(1)
	c.metrics.LastWorkers.Store(int64(sk))
	jobID := fmt.Sprintf("%s-%d", c.nonce, c.seq.Add(1))
	req := jobReq(jobID)
	var deadlineNano int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineNano = dl.UnixNano()
	}

	// Every sharded transform gets a trace ID: the caller's (propagated
	// from the serving layer via the context) or a fresh one. It reaches
	// the workers in the job spec.
	traceID := ""
	if c.traceCap > 0 {
		traceID = trace.IDFromContext(ctx)
		if traceID == "" {
			traceID = trace.NewTraceID()
		}
	}
	rec := &traceRecord{
		ID: traceID, Shape: shape, Fleet: fleet, Offsets: make([]int64, sk),
	}

	span := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		s := trace.Span{Req: req, Name: name, Trace: traceID, Start: t0, End: time.Now()}
		if c.tracer != nil {
			c.tracer.EmitSpan(s)
		}
		rec.Spans = append(rec.Spans, s)
		return err
	}
	start := time.Now()
	fail := func(err error) error {
		c.endAll(fleet, jobID)
		c.metrics.JobsFailed.Add(1)
		rec.Failed = true
		c.storeTrace(rec)
		if log := c.opts.Logger; log != nil {
			log.Warn("sharded transform failed", "trace_id", traceID, "job", jobID,
				"shape", shape.String(), "workers", sk, "err", err)
		}
		return err
	}

	// Begin: every worker acquires (or builds) its warm plan. The reply
	// carries the worker's clock; against the round-trip midpoint that
	// estimates its offset, which aligns its lane in the merged trace.
	err = span("shard/begin", func() error {
		return forEach(fleet, func(i int, node string) error {
			spec := JobSpec{
				Job: jobID, K: k, N: n, M: m, Mu: mu,
				Index: i, Workers: fleet, ChunkElems: c.opts.ChunkElems,
				DeadlineUnixNano: deadlineNano, Trace: traceID,
			}
			var res beginResult
			t0 := time.Now()
			if err := c.tr.postJSONResult(ctx, "begin", node, node+"/shard/begin", spec, &res); err != nil {
				return err
			}
			t1 := time.Now()
			if res.NowUnixNano != 0 {
				mid := t0.UnixNano() + (t1.UnixNano()-t0.UnixNano())/2
				rec.Offsets[i] = res.NowUnixNano - mid
			}
			return nil
		})
	})
	if err != nil {
		return fail(err)
	}

	// Scatter: worker i's input is the contiguous z-slab src[i·ksl·n·m:].
	slab := g.slabElems()
	err = span("shard/scatter", func() error {
		return forEach(fleet, func(i int, node string) error {
			base := i * slab
			return forEachChunk(slab, c.opts.ChunkElems, scatterStreams, func(off, count int) error {
				url := fmt.Sprintf("%s/shard/chunk?job=%s&kind=input&off=%d&count=%d", node, jobID, off, count)
				payload := wire.ComplexBytes(src[base+off : base+off+count])
				if err := c.tr.postChunk(ctx, "scatter", node, url, payload); err != nil {
					return err
				}
				c.metrics.ScatterBytes.Add(int64(len(payload)))
				return nil
			})
		})
	})
	if err != nil {
		return fail(err)
	}

	// Run: the exchange flows peer to peer while the fronts compute.
	stats := make([]runStats, sk)
	runStart := time.Now()
	err = span("shard/run", func() error {
		return forEach(fleet, func(i int, node string) error {
			url := fmt.Sprintf("%s/shard/run?job=%s&sign=%d", node, jobID, sign)
			return c.trOnce.postForResult(ctx, "run", node, url, &stats[i])
		})
	})
	runWall := time.Since(runStart).Seconds()
	if err != nil {
		return fail(err)
	}
	var exchanged int64
	for _, st := range stats {
		exchanged += st.BytesSent
	}
	if runWall > 0 {
		c.metrics.SetLastExchangeGBs(float64(exchanged) / runWall / 1e9)
	}
	// Straggler ratio: the slowest worker's busy time (front + exposed
	// exchange wait + back) over the fleet mean. The gather cannot start
	// before the slowest worker finishes, so this gap is pure slack.
	var busySum, busyMax float64
	for _, st := range stats {
		busy := float64(st.FrontNS + st.ExchangeWaitNS + st.BackNS)
		busySum += busy
		if busy > busyMax {
			busyMax = busy
		}
	}
	if busySum > 0 {
		c.metrics.SetStragglerRatio(busyMax * float64(sk) / busySum)
	}

	// Gather: worker i's output is the y-slab y ∈ [i·nl, (i+1)·nl),
	// laid out locally as rows (z·nl + yl)·m.
	err = span("shard/gather", func() error {
		return forEach(fleet, func(i int, node string) error {
			return forEachChunk(slab, c.opts.ChunkElems, scatterStreams, func(off, count int) error {
				scratch := getScratch(count)
				defer putScratch(scratch)
				url := fmt.Sprintf("%s/shard/result?job=%s&off=%d&count=%d", node, jobID, off, count)
				if err := c.tr.getChunk(ctx, "gather", node, url, wire.ComplexBytes(scratch[:count])); err != nil {
					return err
				}
				placeSlab(dst, g, i, off, scratch[:count])
				c.metrics.GatherBytes.Add(int64(count) * 16)
				return nil
			})
		})
	})
	if err != nil {
		return fail(err)
	}

	c.endAll(fleet, jobID)
	c.metrics.JobsCompleted.Add(1)
	c.storeTrace(rec)
	if log := c.opts.Logger; log != nil {
		log.Info("sharded transform completed", "trace_id", traceID, "job", jobID,
			"shape", shape.String(), "workers", sk,
			"duration_ms", float64(time.Since(start).Nanoseconds())/1e6,
			"straggler_ratio", c.metrics.StragglerRatio())
	}
	return nil
}

// endAll releases the job on every worker (best effort: workers also
// self-reap at deadline + grace).
func (c *Coordinator) endAll(fleet []string, jobID string) {
	// Ends must land even when the caller's ctx already expired.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	forEach(fleet, func(i int, node string) error {
		return c.tr.postForResult(ctx, "end", node, fmt.Sprintf("%s/shard/end?job=%s", node, jobID), nil)
	})
}

// placeSlab copies a gathered chunk (worker widx's local y-slab offsets
// [off, off+len)) into the full cube: local row (z·nl + yl) is global row
// (z·n + widx·nl + yl), each m elements long.
func placeSlab(dst []complex128, g geom, widx, off int, chunk []complex128) {
	ylo := widx * g.nl
	pos := off
	for len(chunk) > 0 {
		row, rem := pos/g.m, pos%g.m
		z, yl := row/g.nl, row%g.nl
		take := min(g.m-rem, len(chunk))
		base := (z*g.n+ylo+yl)*g.m + rem
		copy(dst[base:base+take], chunk[:take])
		chunk = chunk[take:]
		pos += take
	}
}
