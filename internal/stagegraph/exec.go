package stagegraph

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the executor.
type Config struct {
	// Lanes is the lane count L; zero means one. Lane 0 runs on the
	// caller's goroutine, lanes 1…L−1 on goroutines parked between runs.
	Lanes int
	// Obs receives the always-on bandwidth accounting: per-(stage, op)
	// bytes and time into one shard per lane, stage-barrier waits and the
	// run's wall time. Nil disables recording (shard writes are nil-safe
	// no-ops).
	Obs *obs.Collector
}

// lane is one core's pipeline: its one-block buffer (and staging tile), the
// kernel scratch its compute ops draw from and the scratch its fold stores
// fold into. Only the lane touches them.
type lane struct {
	id      int
	buf     Buffers
	arena   *kernels.Arena
	scratch []complex128
	wake    chan struct{}
	end     time.Time // when the lane left its last stage barrier
}

// Executor runs a stage graph on L lanes. Each lane takes a contiguous 1/L
// of every stage's iterations and runs each of its blocks load → compute →
// store in turn through its own buffer; the lanes meet at one barrier per
// stage boundary, so stage s+1 reads only what every lane of stage s has
// stored. The paper pairs a soft-DMA data thread with a compute thread on
// one core's two hyperthreads (§III, Table II); a lane is that core with
// the pair's roles run one after the other, which is what a core without
// SMT sibling — and a runtime that cannot pin two goroutines to one core —
// allows (DESIGN.md §2).
//
// Lanes 1…L−1 are spawned once and park between runs, so a reused plan's
// steady-state Run spawns no goroutines and allocates nothing; a one-lane
// executor holds no goroutine at all. Run executes one graph at a time;
// callers (the plans) serialize on their own lock. Close releases the
// parked lanes; a plan finalizer backstops callers that drop an executor
// without closing it. A lane panic surfaces as the Run error and
// permanently breaks the executor (its stage barrier is poisoned);
// subsequent Runs fail fast.
type Executor struct {
	lanes    []*lane
	stageBar *Barrier // every lane, once per stage; nil with one lane
	done     sync.WaitGroup
	obs      *obs.Collector // nil-safe telemetry sink shared with the plan

	// Per-run state, published before the lanes wake and read by them.
	runStages []Stage
	runTracer *trace.Recorder
	runStart  time.Time

	mu       sync.Mutex
	panicErr error
	broken   bool
	closed   bool
}

// NewExecutor builds the lanes and parks lanes 1…L−1.
func NewExecutor(cfg Config) (*Executor, error) {
	n := cfg.Lanes
	if n == 0 {
		n = 1
	}
	if n < 0 {
		return nil, fmt.Errorf("stagegraph: need ≥ 1 lane, got %d", cfg.Lanes)
	}
	e := &Executor{obs: cfg.Obs}
	if n > 1 {
		e.stageBar = NewBarrier(n)
	}
	for i := 0; i < n; i++ {
		ln := &lane{id: i, arena: kernels.NewArena(0, 0)}
		e.lanes = append(e.lanes, ln)
		if i > 0 {
			ln.wake = make(chan struct{}, 1)
			go e.park(ln)
		}
	}
	return e, nil
}

// Close releases the parked lanes. Idempotent; must not be called
// concurrently with Run.
func (e *Executor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, ln := range e.lanes[1:] {
		close(ln.wake)
	}
}

// Lanes returns the lane count.
func (e *Executor) Lanes() int { return len(e.lanes) }

// SetObs swaps the collector the next Run records into. Plans whose forward
// and inverse graphs account into separate collectors (the real-transform
// plans) call this under their own lock between runs; it must not be called
// while a Run is in flight. Nil disables recording.
func (e *Executor) SetObs(c *obs.Collector) { e.obs = c }

// park is the body of lane 1…L−1's goroutine: wait to be woken, run the
// published graph, report done, repeat until Close.
func (e *Executor) park(ln *lane) {
	for range ln.wake {
		e.runLane(ln)
		e.done.Done()
	}
}

// fit grows the buffers and scratch of every lane that has a block of the
// graph to run (a stage of fewer blocks than lanes leaves the last lanes
// idle) to the graph's largest block and store tile. Plans call it when
// they build a graph, so a run only grows them for a batch block larger
// than any before.
func (e *Executor) fit(stages []Stage) {
	elems, fold, iters, staging := 0, 0, 0, false
	for i := range stages {
		st := &stages[i]
		units, unitLen := st.storeGeometry()
		elems = max(elems, st.BlockElems(), units*unitLen)
		if st.StoreRadix != 0 {
			fold = max(fold, unitLen)
		}
		iters = max(iters, st.Iters)
		staging = staging || st.StoreFromStaging
	}
	for _, ln := range e.lanes[:min(len(e.lanes), iters)] {
		if len(ln.buf.C) < elems {
			ln.buf.C = make([]complex128, elems)
		}
		if staging && len(ln.buf.T) < elems {
			ln.buf.T = make([]complex128, elems)
		}
		if ln.arena.ComplexCap() < elems {
			ln.arena = kernels.NewArena(elems, 0)
		}
		if len(ln.scratch) < fold {
			ln.scratch = make([]complex128, fold)
		}
	}
}

// runLane runs one lane's share of every stage, meeting the other lanes at
// the stage barrier after each. Its time tiles the run: the wait from the
// run's start until the lane wakes and every barrier wait count as barrier
// time, and each op's clock read starts the next op, so the lane's legs and
// waits sum to its time from the run's start to ln.end (Run adds the rest
// of the wall). On panic it records the error and poisons the stage
// barrier so the other lanes fall through.
func (e *Executor) runLane(ln *lane) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			if e.panicErr == nil {
				e.panicErr = fmt.Errorf("stagegraph: lane %d panicked: %v", ln.id, r)
			}
			e.broken = true
			e.mu.Unlock()
			if e.stageBar != nil {
				e.stageBar.Abort()
			}
		}
	}()
	stages, tracer, sh := e.runStages, e.runTracer, e.obs.Shard(ln.id)
	t := time.Now()
	sh.AddBarrier(t.Sub(e.runStart))
	for s := range stages {
		st := &stages[s]
		lo, hi := Partition(st.Iters, ln.id, len(e.lanes))
		for i := lo; i < hi; i++ {
			t = ln.block(st, s, i, hi, t, sh, tracer)
		}
		if e.stageBar == nil {
			continue
		}
		if !e.stageBar.Wait() {
			return
		}
		now := time.Now()
		sh.AddBarrier(now.Sub(t))
		t = now
	}
	ln.end = t
}

// block runs iteration iter of stage s load → compute → store through the
// lane's buffer, starting at t0, and returns the time its store ended; the
// lane's share of the stage ends before hi. A stage that folds its load has
// no load op: its compute op reads the block's slice of Src, and the bytes
// it read are recorded with no time. A prefetching stage's compute asks for
// the lane's next block as it runs (Stage.prefetch). A compute that wrote
// the block through the stage's sink (Stage.FoldStore) leaves no store op:
// one fence orders its streaming stores, and the bytes are recorded with no
// time.
func (ln *lane) block(st *Stage, s, iter, hi int, t0 time.Time, sh *obs.Shard, tr *trace.Recorder) time.Time {
	emit := func(op trace.Op, start, end time.Time) {
		tr.Emit(trace.Event{Op: op, Stage: s, Iter: iter, Lane: ln.id, Start: start, End: end})
	}
	if !st.FoldLoad {
		n := st.load(&ln.buf, iter)
		t1 := time.Now()
		sh.Add(s, obs.Load, n, t1.Sub(t0))
		emit(trace.Load, t0, t1)
		t0 = t1
	}
	ln.arena.Reset()
	ln.arena.Prefetch = st.prefetch(iter, hi)
	ln.buf.Sink, ln.buf.Sunk = st.sink(iter), false
	st.Compute(&ln.buf, ln.arena, st.input(&ln.buf, iter), iter)
	if ln.buf.Sunk {
		layout.StoreFence()
	}
	t1 := time.Now()
	sh.Add(s, obs.Compute, 0, t1.Sub(t0))
	if st.FoldLoad {
		sh.Add(s, obs.Load, st.BlockElems()*complexBytes, 0)
	}
	emit(trace.Compute, t0, t1)
	if ln.buf.Sunk {
		sh.Add(s, obs.Store, st.BlockElems()*complexBytes, 0)
		return t1
	}
	n := st.store(&ln.buf, iter, ln.scratch)
	t2 := time.Now()
	sh.Add(s, obs.Store, n, t2.Sub(t1))
	emit(trace.Store, t1, t2)
	return t2
}

// Run executes the stage graph on the lanes, recording the run into the
// executor's collector. It blocks until every lane's last store lands.
// Steady-state Runs (same graph, fitted lanes) perform zero heap
// allocations and spawn zero goroutines.
func (e *Executor) Run(stages []Stage, tracer *trace.Recorder) error {
	if len(stages) == 0 {
		return fmt.Errorf("stagegraph: empty graph")
	}
	blocks := 0
	for i := range stages {
		if err := stages[i].validate(i); err != nil {
			return err
		}
		blocks += stages[i].Iters
	}
	e.mu.Lock()
	broken, closed, perr := e.broken, e.closed, e.panicErr
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("stagegraph: executor closed")
	}
	if broken {
		return fmt.Errorf("stagegraph: executor broken by earlier panic: %v", perr)
	}
	e.fit(stages)

	e.runStages, e.runTracer = stages, tracer
	e.runStart = time.Now()
	e.done.Add(len(e.lanes) - 1)
	for _, ln := range e.lanes[1:] {
		ln.wake <- struct{}{}
	}
	e.runLane(e.lanes[0])
	e.done.Wait()
	// Drop the graph reference so a parked executor does not pin the
	// caller's arrays (or, via the compute closures, the plan itself —
	// which would defeat the plan finalizer that closes us).
	e.runStages, e.runTracer = nil, nil

	e.mu.Lock()
	perr = e.panicErr
	e.mu.Unlock()
	if perr != nil {
		return perr
	}
	// The run ends when its last lane does; the lanes that ended before it
	// waited that long, so every lane's legs and waits sum to the wall.
	end := e.runStart
	for _, ln := range e.lanes {
		if ln.end.After(end) {
			end = ln.end
		}
	}
	for _, ln := range e.lanes {
		e.obs.Shard(ln.id).AddBarrier(end.Sub(ln.end))
	}
	e.obs.RunDone(blocks, end.Sub(e.runStart))
	return nil
}
