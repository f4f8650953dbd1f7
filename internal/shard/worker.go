package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/stagegraph"
	"repro/internal/trace"
	"repro/internal/wire"
)

// WorkerOptions configures a shard worker. Zero values take defaults.
type WorkerOptions struct {
	// BufferElems sizes each plan's pipeline blocks (0 =
	// machine.PreferredBufferElems). Plans run one lane per GOMAXPROCS.
	BufferElems int

	// PlanCache caps the warm-plan LRU (default 4). Senders sizes the
	// outbound exchange pool per job (default 4).
	PlanCache, Senders int

	// Retries is the per-chunk retry budget beyond the first attempt
	// (default 4; -1 disables retries). Backoff is the initial retry
	// delay, doubling per attempt (default 10ms).
	Retries int
	Backoff time.Duration

	// Client issues outbound exchange requests (default http.Client).
	Client Doer

	Metrics *obs.ShardMetrics // default obs.ShardDefault
	Tracer  *trace.Recorder

	// TraceRing bounds the worker's always-on distributed-trace ring
	// (events and spans each): every traced job's plan builds, stage runs,
	// exchange chunk sends/receives and CRC rejects land here, tagged with
	// the coordinator's trace ID, and /shard/trace?id= serves them back.
	// 0 = default (16384); negative disables distributed tracing.
	TraceRing int

	// Logger receives job-level structured logs (trace ID, shape, phase
	// timings). nil disables logging.
	Logger *slog.Logger
}

const defaultTraceRing = 16384

// Worker executes the local portion of sharded transforms: it owns a
// warm-plan LRU and a table of in-flight jobs, and serves the /shard/*
// wire protocol via Handler.
type Worker struct {
	opts    WorkerOptions
	tr      *transport
	metrics *obs.ShardMetrics
	plans   *lru.Cache[planKey, *workerPlan]

	// rec is the always-on distributed-trace ring: everything a traced job
	// does on this node, tagged with its trace ID. Nil when TraceRing < 0.
	rec *trace.Recorder

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
}

// job is one in-flight sharded transform on this worker.
type job struct {
	spec     JobSpec
	plan     *workerPlan
	release  func() // plan-cache ref
	recvIn   *recvTracker
	recvEx   *recvTracker
	deadline time.Time
	reaper   *time.Timer

	netRecvBytes atomic.Int64
	running      atomic.Bool
	finished     atomic.Bool // stage 3 done; result readable
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.PlanCache <= 0 {
		opts.PlanCache = 4
	}
	if opts.Senders <= 0 {
		opts.Senders = 4
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.ShardDefault
	}
	w := &Worker{
		opts:    opts,
		tr:      newTransport(opts.Client, opts.Retries, opts.Backoff, opts.Metrics),
		metrics: opts.Metrics,
		jobs:    make(map[string]*job),
	}
	if opts.TraceRing >= 0 {
		ring := opts.TraceRing
		if ring == 0 {
			ring = defaultTraceRing
		}
		w.rec = trace.NewRing(ring)
	}
	w.plans = lru.New[planKey, *workerPlan](opts.PlanCache, func(_ planKey, p *workerPlan) {
		p.close()
	})
	return w
}

// Close drops every cached plan (waiting for in-use plans to release).
func (w *Worker) Close() { w.plans.Purge() }

// BeginDrain stops admitting new jobs; in-flight jobs run to completion.
func (w *Worker) BeginDrain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Draining reports whether BeginDrain was called.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// ActiveJobs counts in-flight jobs (begun, not yet ended).
func (w *Worker) ActiveJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs)
}

// Drain stops admission and blocks until the last in-flight job — and
// with it the last exchange chunk — settles, or ctx expires.
func (w *Worker) Drain(ctx context.Context) error {
	w.BeginDrain()
	for {
		if w.ActiveJobs() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shard: drain: %d jobs still in flight: %w", w.ActiveJobs(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Handler serves the /shard/* wire protocol.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/begin", w.handleBegin)
	mux.HandleFunc("/shard/chunk", w.handleChunk)
	mux.HandleFunc("/shard/run", w.handleRun)
	mux.HandleFunc("/shard/result", w.handleResult)
	mux.HandleFunc("/shard/end", w.handleEnd)
	mux.HandleFunc("/shard/trace", w.handleTrace)
	return mux
}

// Trace returns this node's slice of one distributed trace, straight from
// the always-on ring.
func (w *Worker) Trace(id string) ([]trace.Event, []trace.Span) {
	if w.rec == nil {
		return nil, nil
	}
	return w.rec.ForTrace(id)
}

// handleTrace serves GET /shard/trace?id=: the events and spans this node
// recorded for one distributed trace, for the coordinator's fleet merge.
func (w *Worker) handleTrace(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(rw, "GET required", http.StatusMethodNotAllowed)
		return
	}
	id := req.URL.Query().Get("id")
	if id == "" {
		http.Error(rw, "missing id", http.StatusBadRequest)
		return
	}
	events, spans := w.Trace(id)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(trace.NodeTrace{Events: events, Spans: spans})
}

// span records one named interval of a traced job into the worker ring.
func (w *Worker) span(spec JobSpec, name string, start, end time.Time) {
	if w.rec == nil || spec.Trace == "" {
		return
	}
	w.rec.EmitSpan(trace.Span{
		Req: jobReq(spec.Job), Name: name, Trace: spec.Trace,
		Start: start, End: end,
	})
}

func (w *Worker) lookup(id string) *job {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

func (w *Worker) handleBegin(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(rw, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := spec.validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if w.Draining() {
		http.Error(rw, "draining", http.StatusServiceUnavailable)
		return
	}
	sk := len(spec.Workers)
	key := planKey{spec.K, spec.N, spec.M, sk, spec.Index, spec.Mu}
	var buildStart time.Time
	plan, release, err := w.plans.GetOrCreate(key, func() (*workerPlan, error) {
		buildStart = time.Now()
		p, err := buildWorkerPlan(key, spec.ChunkElems, w.opts.BufferElems)
		if err == nil {
			p.allocSend()
		}
		return p, err
	})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if !buildStart.IsZero() {
		w.span(spec, "shard/plan-build", buildStart, time.Now())
	}
	var deadline time.Time
	ctx := req.Context()
	if spec.DeadlineUnixNano != 0 {
		deadline = time.Unix(0, spec.DeadlineUnixNano)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if err := plan.acquire(ctx); err != nil {
		release()
		http.Error(rw, "plan busy: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	slabBytes := int64(plan.g.slabElems()) * 16
	j := &job{
		spec: spec, plan: plan, release: release,
		recvIn:   newRecvTracker(slabBytes),
		recvEx:   newRecvTracker(slabBytes),
		deadline: deadline,
	}
	w.mu.Lock()
	if _, dup := w.jobs[spec.Job]; dup {
		w.mu.Unlock()
		plan.releaseBusy()
		release()
		http.Error(rw, "duplicate job "+spec.Job, http.StatusConflict)
		return
	}
	w.jobs[spec.Job] = j
	w.mu.Unlock()
	if !deadline.IsZero() {
		// Reap abandoned jobs (coordinator death) a grace period past the
		// deadline so the plan and its buffers free up.
		j.reaper = time.AfterFunc(time.Until(deadline)+5*time.Second, func() {
			w.finishJob(spec.Job)
		})
	}
	if log := w.opts.Logger; log != nil {
		log.Debug("shard job begun", "trace_id", spec.Trace, "job", spec.Job,
			"shape", spec.Shape().String(), "index", spec.Index, "workers", sk)
	}
	// The reply carries this node's clock so the coordinator can estimate
	// the clock offset from the round-trip midpoint.
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(beginResult{NowUnixNano: time.Now().UnixNano()})
}

// finishJob removes the job and releases its plan. Idempotent.
func (w *Worker) finishJob(id string) {
	w.mu.Lock()
	j := w.jobs[id]
	delete(w.jobs, id)
	w.mu.Unlock()
	if j == nil {
		return
	}
	if j.reaper != nil {
		j.reaper.Stop()
	}
	j.plan.releaseBusy()
	j.release()
}

// chunkScratch pools staging buffers so payloads are CRC-verified before
// any byte lands in plan state (and so the complex view stays aligned).
var chunkScratch sync.Pool

func getScratch(n int) []complex128 {
	if v := chunkScratch.Get(); v != nil {
		s := *v.(*[]complex128)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]complex128, n)
}

func putScratch(s []complex128) { chunkScratch.Put(&s) }

func (w *Worker) handleChunk(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	arrived := time.Now()
	qv := req.URL.Query()
	j := w.lookup(qv.Get("job"))
	if j == nil {
		http.Error(rw, "unknown job", http.StatusBadRequest)
		return
	}
	off, err1 := strconv.Atoi(qv.Get("off"))
	count, err2 := strconv.Atoi(qv.Get("count"))
	if err1 != nil || err2 != nil || off < 0 || count <= 0 {
		http.Error(rw, "bad off/count", http.StatusBadRequest)
		return
	}
	g := j.plan.g
	kind := qv.Get("kind")
	var from int
	switch kind {
	case "input":
		if count > g.slabElems()-off {
			http.Error(rw, "chunk out of range", http.StatusBadRequest)
			return
		}
	case "exchange":
		from, err1 = strconv.Atoi(qv.Get("from"))
		if err1 != nil || from < 0 || from >= g.sk || from == j.spec.Index ||
			count > g.peerShareElems()-off || off%g.mu != 0 || count%g.mu != 0 {
			http.Error(rw, "bad exchange chunk", http.StatusBadRequest)
			return
		}
	default:
		http.Error(rw, "bad kind", http.StatusBadRequest)
		return
	}
	scratch := getScratch(count)
	defer putScratch(scratch)
	payload := wire.ComplexBytes(scratch)
	if _, err := io.ReadFull(req.Body, payload); err != nil {
		http.Error(rw, "short payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := wire.CheckCRC(req.Header, payload); err != nil {
		if !errors.Is(err, wire.ErrChecksum) {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.metrics.ChunksRejected.Add(1)
		w.span(j.spec, fmt.Sprintf("crc-reject %s @%d", kind, off), arrived, time.Now())
		if log := w.opts.Logger; log != nil {
			log.Warn("chunk checksum reject", "trace_id", j.spec.Trace, "job", j.spec.Job,
				"kind", kind, "from", from, "off", off)
		}
		http.Error(rw, err.Error(), statusChecksumReject)
		return
	}
	// Payload verified; commit it. Duplicate retransmits overwrite with
	// identical bytes and are only counted once.
	switch kind {
	case "input":
		copy(j.plan.in[off:off+count], scratch)
		if !j.recvIn.markChunk(int64(off), int64(count)*16) {
			w.metrics.ChunksDuplicate.Add(1)
		}
	case "exchange":
		// The compact layout (exchangeRoute) packs each pillar's ksl z-rows
		// back to back, and they are contiguous in cPart too: copy a
		// pillar's run at a time.
		zrun := g.ksl * g.mu
		for i := 0; i < count; {
			n := min(count-i, zrun-(off+i)%zrun)
			dst := g.expandOffset(from, off+i)
			copy(j.plan.cPart[dst:dst+n], scratch[i:i+n])
			i += n
		}
		if j.recvEx.markChunk(int64(from)<<40|int64(off), int64(count)*16) {
			w.metrics.ChunksReceived.Add(1)
			w.metrics.BytesReceived.Add(int64(count) * 16)
			j.netRecvBytes.Add(int64(count) * 16)
			// Same span name the sender records, so the merged timeline
			// shows the chunk leaving one lane and landing in another.
			w.span(j.spec, exchangeSpanName(from, j.spec.Index, off), arrived, time.Now())
		} else {
			w.metrics.ChunksDuplicate.Add(1)
		}
	}
	rw.WriteHeader(http.StatusOK)
}

func (w *Worker) handleRun(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	qv := req.URL.Query()
	j := w.lookup(qv.Get("job"))
	if j == nil {
		http.Error(rw, "unknown job", http.StatusBadRequest)
		return
	}
	sign, err := strconv.Atoi(qv.Get("sign"))
	if err != nil || (sign != -1 && sign != 1) {
		http.Error(rw, "sign must be ±1", http.StatusBadRequest)
		return
	}
	if !j.running.CompareAndSwap(false, true) {
		// Runs are not idempotent (re-running would double-credit the
		// receive trackers), so a retried /shard/run is a protocol error.
		http.Error(rw, "job already running", http.StatusConflict)
		return
	}
	if !j.recvIn.complete() {
		http.Error(rw, "input slab incomplete", http.StatusBadRequest)
		return
	}
	stats, err := w.runJob(req.Context(), j, sign)
	if err != nil {
		w.metrics.WorkerJobsFailed.Add(1)
		if log := w.opts.Logger; log != nil {
			log.Warn("shard job failed", "trace_id", j.spec.Trace, "job", j.spec.Job, "err", err)
		}
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.metrics.WorkerJobsCompleted.Add(1)
	j.finished.Store(true)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(stats)
}

// jobReq derives a stable trace request id from the job id.
func jobReq(id string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return h.Sum64()
}

// exchangeSpanName names one exchange chunk transfer. Sender and receiver
// derive the identical name independently (sender index, receiver index,
// compact offset), which is what lets the merged Perfetto timeline show
// the same chunk on both lanes.
func exchangeSpanName(from, to, off int) string {
	return fmt.Sprintf("xchg %d→%d @%d", from, to, off)
}

// runJob executes the job's local stages: front graph (W² stores stream
// into the exchange as they happen), wait for the sender pool and the
// last inbound chunk, then the back graph into the output y-slab.
func (w *Worker) runJob(ctx context.Context, j *job, sign int) (runStats, error) {
	var stats runStats
	p := j.plan
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	traced := w.rec != nil && j.spec.Trace != ""

	// Stage-graph events go to the session tracer as before; a traced job
	// additionally captures them in a job-local recorder whose contents are
	// re-emitted into the worker ring tagged with the trace ID.
	execTracer := w.opts.Tracer
	var runRec *trace.Recorder
	if traced {
		runRec = trace.New()
		execTracer = runRec
	}
	copyTagged := func() {
		if runRec == nil {
			return
		}
		for _, e := range runRec.Events() {
			e.Trace = j.spec.Trace
			w.rec.Emit(e)
			if w.opts.Tracer != nil {
				w.opts.Tracer.Emit(e)
			}
		}
		runRec = trace.New()
		execTracer = runRec
	}

	router := newExchangeRouter(p, j.recvEx)
	p.slot.ex = router
	router.startSenders(rctx, cancel, w.opts.Senders, w.tr, j.spec, w)

	t0 := time.Now()
	runErr := p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: p.in}, Sign: sign, Tracer: execTracer})
	stats.FrontNS = int64(time.Since(t0))
	w.span(j.spec, "shard/front", t0, time.Now())
	copyTagged()
	p.slot.ex = nil // the router holds the plan: no cycle outlives the run
	sendErr := router.finish()
	if runErr != nil {
		return stats, errf(KindProtocol, "run", "", "front graph: %v", runErr)
	}
	if sendErr != nil {
		return stats, sendErr
	}

	tw := time.Now()
	if err := j.recvEx.wait(rctx); err != nil {
		if router.err != nil {
			return stats, router.err
		}
		kind := KindDeadline
		if ctx.Err() == nil {
			kind = KindNetwork
		}
		return stats, errf(kind, "exchange", "", "waiting for inbound chunks: %v", err)
	}
	waitNS := int64(time.Since(tw))
	stats.ExchangeWaitNS = waitNS
	w.metrics.ExchangeWaitNanos.Add(waitNS)
	w.span(j.spec, "shard/exchange-wait", tw, tw.Add(time.Duration(waitNS)))
	if tr := w.opts.Tracer; tr != nil {
		tr.EmitSpan(trace.Span{Req: jobReq(j.spec.Job), Name: "shard/exchange-wait",
			Start: tw, End: tw.Add(time.Duration(waitNS))})
	}

	t1 := time.Now()
	runErr = p.run.Run(1, stagegraph.Call{Out: stagegraph.Endpoint{C: p.out}, Sign: sign, Tracer: execTracer})
	stats.BackNS = int64(time.Since(t1))
	w.span(j.spec, "shard/back", t1, time.Now())
	copyTagged()
	if runErr != nil {
		return stats, errf(KindProtocol, "run", "", "back graph: %v", runErr)
	}
	stats.BytesSent = router.bytesSent.Load()
	stats.ChunksSent = router.chunksSent.Load()
	stats.BytesReceived = j.netRecvBytes.Load()
	if log := w.opts.Logger; log != nil {
		log.Debug("shard job ran", "trace_id", j.spec.Trace, "job", j.spec.Job,
			"front_ms", float64(stats.FrontNS)/1e6,
			"exchange_wait_ms", float64(waitNS)/1e6,
			"back_ms", float64(stats.BackNS)/1e6,
			"bytes_sent", stats.BytesSent, "bytes_received", stats.BytesReceived)
	}
	return stats, nil
}

func (w *Worker) handleResult(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(rw, "GET required", http.StatusMethodNotAllowed)
		return
	}
	qv := req.URL.Query()
	j := w.lookup(qv.Get("job"))
	if j == nil {
		http.Error(rw, "unknown job", http.StatusBadRequest)
		return
	}
	if !j.finished.Load() {
		http.Error(rw, "job not finished", http.StatusBadRequest)
		return
	}
	off, err1 := strconv.Atoi(qv.Get("off"))
	count, err2 := strconv.Atoi(qv.Get("count"))
	if err1 != nil || err2 != nil || off < 0 || count <= 0 || count > j.plan.g.slabElems()-off {
		http.Error(rw, "bad off/count", http.StatusBadRequest)
		return
	}
	payload := wire.ComplexBytes(j.plan.out[off : off+count])
	rw.Header().Set("Content-Type", "application/octet-stream")
	wire.SetCRC(rw.Header(), payload)
	rw.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	rw.Write(payload)
}

func (w *Worker) handleEnd(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	w.finishJob(req.URL.Query().Get("job"))
	rw.WriteHeader(http.StatusOK)
}
