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
// An executor is a lane team, leased to a plan's run by the engine
// (engine.go): lanes 1…L−1 park between runs, so a steady-state Run spawns
// no goroutines and allocates nothing. Close releases them. A lane panic
// surfaces as the Run error and breaks the team (its stage barrier is
// poisoned): later Runs fail fast, and the engine closes it.
type Executor struct {
	lanes    []*lane
	stageBar *Barrier // every lane, once per stage; nil with one lane
	done     sync.WaitGroup

	// Per-run state, published before the lanes wake and read by them.
	runStages []Stage
	runObs    *obs.Collector // nil-safe
	runTracer *trace.Recorder
	runStart  time.Time

	mu       sync.Mutex
	panicErr error
	broken   bool
	closed   bool
}

// NewExecutor builds a team of the given lane count (zero means one) and
// parks lanes 1…L−1; lane 0 runs on Run's caller's goroutine.
func NewExecutor(lanes int) (*Executor, error) {
	if lanes < 0 {
		return nil, fmt.Errorf("stagegraph: need ≥ 1 lane, got %d", lanes)
	}
	n := max(lanes, 1)
	e := &Executor{}
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

// usable reports whether the team may run again: not closed, and no lane
// has panicked in it.
func (e *Executor) usable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed && !e.broken
}

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
// idle) to the graph's largest block and store tile. Run calls it, so a
// team's buffers grow to the largest block any run on it has had, and only
// a larger one allocates.
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
	stages, tracer, sh := e.runStages, e.runTracer, e.runObs.Shard(ln.id)
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
// lane's share of the stage ends before hi. A stage that folds its load
// reads the block's slice of Src in its compute op, so its load is a
// folded leg. A prefetching stage's compute asks for the lane's next block
// as it runs (Stage.prefetch). A compute that wrote the block through the
// stage's sink (Stage.FoldStore) makes its store a folded leg: one fence
// orders its streaming stores.
func (ln *lane) block(st *Stage, s, iter, hi int, t0 time.Time, sh *obs.Shard, tr *trace.Recorder) time.Time {
	if st.FoldLoad {
		ln.record(sh, tr, s, iter, trace.Load, st.BlockElems()*complexBytes, t0, t0, true)
	} else {
		n := st.load(&ln.buf, iter)
		t1 := time.Now()
		ln.record(sh, tr, s, iter, trace.Load, n, t0, t1, false)
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
	ln.record(sh, tr, s, iter, trace.Compute, 0, t0, t1, false)
	if ln.buf.Sunk {
		ln.record(sh, tr, s, iter, trace.Store, st.BlockElems()*complexBytes, t1, t1, true)
		return t1
	}
	n := st.store(&ln.buf, iter, ln.scratch)
	t2 := time.Now()
	ln.record(sh, tr, s, iter, trace.Store, n, t1, t2, false)
	return t2
}

// record accounts one op of block iter of stage s — n bytes moved over
// [start, end) — into the collector and, when tracing, the recorder. A
// folded leg ran inside the compute op: its bytes count with no time, and
// its event, marked Folded, lasts none.
func (ln *lane) record(sh *obs.Shard, tr *trace.Recorder, s, iter int, op trace.Op, n int, start, end time.Time, folded bool) {
	sh.Add(s, obs.Op(op), n, end.Sub(start))
	if tr != nil {
		tr.Emit(trace.Event{Op: op, Stage: s, Iter: iter, Lane: ln.id, Start: start, End: end, Folded: folded})
	}
}

// Run executes the stage graph on the lanes, recording the run into col —
// the always-on bandwidth accounting: per-(stage, op) bytes and time into
// one shard per lane, stage-barrier waits and the run's wall time; nil
// records nothing — and, when tracing, into tracer. It blocks until every
// lane's last store lands. Steady-state Runs (same graph, fitted lanes)
// perform zero heap allocations and spawn zero goroutines.
func (e *Executor) Run(stages []Stage, col *obs.Collector, tracer *trace.Recorder) error {
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

	e.runStages, e.runObs, e.runTracer = stages, col, tracer
	e.runStart = time.Now()
	e.done.Add(len(e.lanes) - 1)
	for _, ln := range e.lanes[1:] {
		ln.wake <- struct{}{}
	}
	e.runLane(e.lanes[0])
	e.done.Wait()
	// Drop the graph reference so a parked team does not pin the caller's
	// arrays, or through the compute closures the plan, whose finalizer
	// closes its runner.
	e.runStages, e.runObs, e.runTracer = nil, nil, nil

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
		col.Shard(ln.id).AddBarrier(end.Sub(ln.end))
	}
	col.RunDone(blocks, end.Sub(e.runStart))
	return nil
}

// CheckLanes verifies that the events tr recorded are the executor's lane
// schedule of a graph with the given per-stage iteration counts on the
// given number of lanes: lane l owns its Partition share of each stage's
// iterations; it loads, computes and stores each of them exactly once (a
// folded leg too: its event lasts no time), in that order and one block
// after another; and no op of stage s+1 starts before the last store of
// stage s has ended.
func CheckLanes(tr *trace.Recorder, iters []int, lanes int) error {
	type slot struct{ stage, iter int }
	last := map[int]trace.Event{} // lane → its previous event
	done := map[slot][3]int{}
	stageEnd := make([]time.Time, len(iters))
	for _, e := range tr.Events() {
		if e.Stage < 0 || e.Stage >= len(iters) {
			return fmt.Errorf("event with stage %d outside graph of %d stages", e.Stage, len(iters))
		}
		n := iters[e.Stage]
		if e.Iter < 0 || e.Iter >= n {
			return fmt.Errorf("stage %d: iter %d outside [0,%d)", e.Stage, e.Iter, n)
		}
		if lo, hi := Partition(n, e.Lane, lanes); e.Iter < lo || e.Iter >= hi {
			return fmt.Errorf("stage %d: iter %d ran on lane %d, whose share is [%d,%d)", e.Stage, e.Iter, e.Lane, lo, hi)
		}
		sl := slot{e.Stage, e.Iter}
		c := done[sl]
		if c[e.Op]++; c[e.Op] > 1 {
			return fmt.Errorf("stage %d: %v of iter %d ran twice", e.Stage, e.Op, e.Iter)
		}
		done[sl] = c
		if p, ok := last[e.Lane]; ok {
			// A lane's ops follow one another: the rest of the block it
			// was on, or the first op of its next block.
			same := p.Stage == e.Stage && p.Iter == e.Iter
			next := p.Stage < e.Stage || (p.Stage == e.Stage && p.Iter < e.Iter)
			if (same && e.Op <= p.Op) || (!same && (!next || p.Op != trace.Store || e.Op == trace.Store)) {
				return fmt.Errorf("lane %d: %v of stage %d iter %d after %v of stage %d iter %d",
					e.Lane, e.Op, e.Stage, e.Iter, p.Op, p.Stage, p.Iter)
			}
		} else if e.Op == trace.Store {
			return fmt.Errorf("lane %d: starts with a store", e.Lane)
		}
		last[e.Lane] = e
		if e.Op == trace.Store && e.End.After(stageEnd[e.Stage]) {
			stageEnd[e.Stage] = e.End
		}
	}
	for s, n := range iters {
		for i := 0; i < n; i++ {
			c := done[slot{s, i}]
			if c != [3]int{1, 1, 1} {
				return fmt.Errorf("stage %d: iter %d loaded %d, computed %d and stored %d times",
					s, i, c[trace.Load], c[trace.Compute], c[trace.Store])
			}
		}
	}
	for _, e := range tr.Events() {
		if e.Stage > 0 && e.Start.Before(stageEnd[e.Stage-1]) {
			return fmt.Errorf("stage %d: %v of iter %d started before stage %d's last store ended",
				e.Stage, e.Op, e.Iter, e.Stage-1)
		}
	}
	return nil
}
