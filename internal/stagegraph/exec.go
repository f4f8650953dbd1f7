package stagegraph

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the executor.
type Config struct {
	// DataWorkers (p_d) and ComputeWorkers (p_c): the soft-DMA team that
	// loads and stores, and the team that runs the pencil kernels.
	DataWorkers    int
	ComputeWorkers int
	// Obs receives the always-on bandwidth accounting: per-(stage, op)
	// bytes/time into per-worker shards, barrier-wait time, and per-run
	// occupancy. Nil disables recording (the workers still take their step
	// timestamps; shard writes are nil-safe no-ops).
	Obs *obs.Collector
	// ScratchComplex pre-sizes every compute worker's scratch arena (in
	// complex128 elements). Zero leaves the arenas empty; they grow on
	// first use and are retained, so the steady state is allocation-free
	// either way. Plans pass their block footprint here so the slabs are
	// sized at plan time.
	ScratchComplex int
}

// slotRef names one (stage, iteration) pipeline slot and the buffer half
// its load step assigned it.
type slotRef struct {
	stage, iter, half int
}

// Schedule is a compiled stage-graph schedule: the per-step op tables of
// BuildSchedule plus the step count. It depends only on the stage iteration
// counts and the fusion flag — not on the arrays a particular Transform
// binds — so plans compile it once at plan time and replay it on every
// call; it is only rebuilt when the options that shaped it change (which,
// for the immutable plans in this repository, means building a new plan).
type Schedule struct {
	loadAt, computeAt, storeAt []slotRef
	steps                      int
	fused                      bool
	iters                      []int // per-stage Iters the schedule was compiled for
	busyBoth                   int   // steps with a data op and a compute op
}

// Steps returns the schedule's total step count.
func (s *Schedule) Steps() int { return s.steps }

// Fused reports whether the schedule fuses stage boundaries.
func (s *Schedule) Fused() bool { return s.fused }

// BusyBothSteps returns the number of steps in which the schedule has both
// a data op (load or store) and a compute op — the numerator of the
// steady-state overlap occupancy.
func (s *Schedule) BusyBothSteps() int { return s.busyBoth }

// Compile builds the reusable schedule for a stage graph.
func Compile(stages []Stage, fused bool) *Schedule {
	loadAt, computeAt, storeAt, steps := BuildSchedule(stages, fused)
	sched := &Schedule{loadAt: loadAt, computeAt: computeAt, storeAt: storeAt,
		steps: steps, fused: fused, iters: make([]int, len(stages))}
	for i := range stages {
		sched.iters[i] = stages[i].Iters
	}
	for t := 0; t < steps; t++ {
		if (loadAt[t].stage >= 0 || storeAt[t].stage >= 0) && computeAt[t].stage >= 0 {
			sched.busyBoth++
		}
	}
	return sched
}

func (s *Schedule) matches(stages []Stage) error {
	if len(s.iters) != len(stages) {
		return fmt.Errorf("stagegraph: schedule compiled for %d stages, got %d", len(s.iters), len(stages))
	}
	for i := range stages {
		if stages[i].Iters != s.iters[i] {
			return fmt.Errorf("stagegraph: schedule stage %d compiled for %d iters, got %d",
				i, s.iters[i], stages[i].Iters)
		}
	}
	return nil
}

// BuildSchedule compiles a stage graph into per-step op tables: loadAt[t],
// computeAt[t] and storeAt[t] give the slot whose load/compute/store runs
// at global step t (stage −1 = idle). The load of (stage s, iter i) runs
// at step base[s]+i, its compute one step later, its store two steps
// later, and it owns buffer half (base[s]+i) mod 2 for all three — exactly
// Table II within each stage.
//
// Fused boundaries place base[s+1] two steps after stage s's last load, so
// the first load of stage s+1 shares a step — and, by parity, a buffer
// half — with the last store of stage s; the engine's store-before-load
// ordering among data workers makes that legal, and every earlier store of
// stage s (the data the load reads) completed in strictly earlier steps.
// Stage s+1's first store then runs two steps after stage s's last load,
// after every read of stage s's source — so chains that reuse an array at
// distance two (3D: src→dst→work→dst) are safe as well. Unfused
// boundaries add one more step, reproducing separate runs: sum(iters+2)
// steps versus sum(iters)+stages+1 fused.
//
// A stage that folds its load (Stage.FoldLoad) reads slot (s, i) in the
// compute op of step l+1 instead of the load op of step l, l = base[s]+i,
// and a compute op runs concurrently with its step's stores and loads. The
// argument survives the move. The read still follows every store into the
// source: the producer's last store ran no later than step base[s] ≤ l,
// strictly before l+1. It still precedes every later overwrite: the first
// store of a later stage runs at base[s+1]+2 or later, four steps after
// stage s's last load and three after its last folded read. The buffer
// half is free as well: the compute op of step l+1 writes half l mod 2, whose
// previous slot was stored at step l, while that step's data ops work on the
// other half. TestFoldedReadsStayLegal replays both schedules with the reads
// so placed.
func BuildSchedule(stages []Stage, fused bool) (loadAt, computeAt, storeAt []slotRef, steps int) {
	if len(stages) == 0 {
		return nil, nil, nil, 0 // an empty schedule, which Executor.Run refuses
	}
	iters := make([]int, len(stages))
	for i := range stages {
		iters[i] = stages[i].Iters
	}
	bases := trace.StageGraphBases(iters, fused)
	last := len(stages) - 1
	steps = bases[last] + iters[last] + 2

	idle := slotRef{stage: -1}
	loadAt = make([]slotRef, steps)
	computeAt = make([]slotRef, steps)
	storeAt = make([]slotRef, steps)
	for t := range loadAt {
		loadAt[t], computeAt[t], storeAt[t] = idle, idle, idle
	}
	for s := range stages {
		for i := 0; i < stages[s].Iters; i++ {
			l := bases[s] + i
			ref := slotRef{stage: s, iter: i, half: l % 2}
			loadAt[l] = ref
			computeAt[l+1] = ref
			storeAt[l+2] = ref
		}
	}
	return loadAt, computeAt, storeAt, steps
}

// Steps returns the schedule length of a graph without compiling it.
func Steps(stages []Stage, fused bool) int {
	total := 0
	for i := range stages {
		total += stages[i].Iters
	}
	if fused {
		return total + len(stages) + 1
	}
	return total + 2*len(stages)
}

// role distinguishes the soft-DMA data workers, which load blocks in and
// store rotated blocks out, from the compute workers, which run the batched
// pencils on the cached buffers.
type workerRole int

const (
	computeRole workerRole = iota
	dataRole
)

func (r workerRole) String() string {
	if r == dataRole {
		return "data"
	}
	return "compute"
}

// Executor is a persistent stage-graph execution engine: p_d data workers
// and p_c compute workers are spawned exactly once, park on a barrier
// between runs, and are woken per Run — the goroutine analogue of the
// paper's long-lived pinned pthread team. Plans hold one Executor for their
// whole lifetime, so a reused plan's steady-state Transform spawns no
// goroutines and allocates nothing: the compiled Schedule is replayed, the
// per-step timing tables are reused, and every compute worker draws scratch
// from its own retained kernels.Arena.
//
// Run executes one graph at a time; callers (the plans) serialize on their
// own lock. Close releases the workers; a plan finalizer backstops callers
// that drop an executor without closing it. A worker panic surfaces as the
// Run error and permanently breaks the executor (its step barriers are
// poisoned); subsequent Runs fail fast.
type Executor struct {
	dataWorkers    int
	computeWorkers int

	startBar  *Barrier // workers + caller: publishes the run
	finishBar *Barrier // workers + caller: completes the run
	dataBar   *Barrier // data workers: store-before-load within a step
	stepBar   *Barrier // all workers: step boundary

	arenas []*kernels.Arena // one per compute worker
	obs    *obs.Collector   // nil-safe telemetry sink shared with the plan

	// storeScratch holds one per-data-worker fold buffer, sized in Run to
	// the largest store-unit length among stages with StoreRadix set and
	// retained across runs (steady state stays allocation-free).
	storeScratch [][]complex128

	// Per-run state, published before the start barrier and read by the
	// workers after it.
	runBufs   *Buffers
	runStages []Stage
	runSched  *Schedule
	runTracer *trace.Recorder

	panicMu  sync.Mutex
	panicErr error
	broken   bool

	closeOnce sync.Once
	closed    bool
}

// NewExecutor spawns the worker team. The workers park immediately and stay
// parked until the first Run.
func NewExecutor(cfg Config) (*Executor, error) {
	if cfg.DataWorkers < 1 || cfg.ComputeWorkers < 1 {
		return nil, fmt.Errorf("stagegraph: need ≥1 data and compute workers, got %d/%d",
			cfg.DataWorkers, cfg.ComputeWorkers)
	}
	total := cfg.DataWorkers + cfg.ComputeWorkers
	e := &Executor{
		dataWorkers:    cfg.DataWorkers,
		computeWorkers: cfg.ComputeWorkers,
		startBar:       NewBarrier(total + 1),
		finishBar:      NewBarrier(total + 1),
		dataBar:        NewBarrier(cfg.DataWorkers),
		stepBar:        NewBarrier(total),
		arenas:         make([]*kernels.Arena, cfg.ComputeWorkers),
		obs:            cfg.Obs,
	}
	for i := range e.arenas {
		e.arenas[i] = kernels.NewArena(cfg.ScratchComplex, 0)
	}
	for w := 0; w < cfg.DataWorkers; w++ {
		go e.worker(dataRole, w, cfg.DataWorkers)
	}
	for w := 0; w < cfg.ComputeWorkers; w++ {
		go e.worker(computeRole, w, cfg.ComputeWorkers)
	}
	return e, nil
}

// Close releases the worker goroutines. Idempotent; must not be called
// concurrently with Run.
func (e *Executor) Close() {
	e.closeOnce.Do(func() {
		e.closed = true
		e.startBar.Abort()
		e.finishBar.Abort()
	})
}

// Workers returns (dataWorkers, computeWorkers).
func (e *Executor) Workers() (int, int) { return e.dataWorkers, e.computeWorkers }

// SetObs swaps the collector the next Run records into. Plans whose forward
// and inverse graphs account into separate collectors (the real-transform
// plans) call this under their own lock between runs; it must not be called
// while a Run is in flight. Nil disables recording.
func (e *Executor) SetObs(c *obs.Collector) { e.obs = c }

// worker is the persistent body of one worker goroutine: park on the start
// barrier, play the published schedule, meet at the finish barrier, repeat.
func (e *Executor) worker(role workerRole, slot, workers int) {
	for {
		if !e.startBar.Wait() {
			return
		}
		e.runSteps(role, slot, workers)
		if !e.finishBar.Wait() {
			return
		}
	}
}

// runSteps plays every step of the current schedule for one worker. On
// panic it records the error and poisons the step barriers so the rest of
// the team unblocks and falls through to the finish barrier.
func (e *Executor) runSteps(role workerRole, slot, workers int) {
	defer func() {
		if r := recover(); r != nil {
			e.panicMu.Lock()
			if e.panicErr == nil {
				e.panicErr = fmt.Errorf("stagegraph: %s worker %d panicked: %v", role, slot, r)
			}
			e.broken = true
			e.panicMu.Unlock()
			e.dataBar.Abort()
			e.stepBar.Abort()
		}
	}()
	b, stages, sched, tracer := e.runBufs, e.runStages, e.runSched, e.runTracer
	var sh *obs.Shard
	if e.obs != nil {
		if role == dataRole {
			sh = e.obs.DataShard(slot)
		} else {
			sh = e.obs.ComputeShard(slot)
		}
	}
	// Four timestamps per step bound the telemetry cost: the previous
	// step's barrier exit doubles as this step's op start, so op durations
	// and barrier waits come from the same clock reads the per-op tracer
	// stamps already paid for.
	stepStart := time.Now()
	for s := 0; s < sched.steps; s++ {
		a := stepStart
		if role == dataRole {
			storeRef := sched.storeAt[s]
			nStore := 0
			if storeRef.stage >= 0 {
				var scratch []complex128
				if len(e.storeScratch) > 0 {
					scratch = e.storeScratch[slot]
				}
				nStore = stages[storeRef.stage].store(b, storeRef.half, storeRef.iter, slot, workers, scratch)
			}
			t1 := time.Now()
			if storeRef.stage >= 0 {
				sh.Add(storeRef.stage, obs.Store, nStore, t1.Sub(a))
				tracer.Emit(trace.Event{
					Op: trace.Store, Step: s, Stage: storeRef.stage, Iter: storeRef.iter,
					Buf: storeRef.half, Worker: slot, Role: "data", Start: a, End: t1,
				})
			}
			if !e.dataBar.Wait() {
				return
			}
			t2 := time.Now()
			sh.AddBarrier(t2.Sub(t1))
			loadRef := sched.loadAt[s]
			if loadRef.stage >= 0 && stages[loadRef.stage].FoldLoad {
				loadRef.stage = -1 // the compute op reads the block from Src
			}
			nLoad := 0
			if loadRef.stage >= 0 {
				nLoad = stages[loadRef.stage].load(b, loadRef.half, loadRef.iter, slot, workers)
			}
			t3 := time.Now()
			if loadRef.stage >= 0 {
				sh.Add(loadRef.stage, obs.Load, nLoad, t3.Sub(t2))
				tracer.Emit(trace.Event{
					Op: trace.Load, Step: s, Stage: loadRef.stage, Iter: loadRef.iter,
					Buf: loadRef.half, Worker: slot, Role: "data", Start: t2, End: t3,
				})
			}
			if !e.stepBar.Wait() {
				return
			}
			stepStart = time.Now()
			sh.AddBarrier(stepStart.Sub(t3))
		} else {
			ref := sched.computeAt[s]
			folded := 0 // source bytes a folded load's first sweep read
			if ref.stage >= 0 {
				st := &stages[ref.stage]
				lo, hi := Partition(st.Units, slot, workers)
				ar := e.arenas[slot]
				ar.Reset()
				st.Compute(b, ar, st.input(b, ref.half, ref.iter), ref.half, ref.iter, lo, hi)
				if st.FoldLoad {
					folded = (hi - lo) * st.UnitLen * complexBytes
				}
			}
			t1 := time.Now()
			if ref.stage >= 0 {
				sh.Add(ref.stage, obs.Compute, 0, t1.Sub(a))
				if folded > 0 {
					// Exact load bytes and no load time: the read is part of
					// the compute op, so no load rate is derived from them.
					sh.Add(ref.stage, obs.Load, folded, 0)
				}
				tracer.Emit(trace.Event{
					Op: trace.Compute, Step: s, Stage: ref.stage, Iter: ref.iter,
					Buf: ref.half, Worker: slot, Role: "compute", Start: a, End: t1,
				})
			}
			if !e.stepBar.Wait() {
				return
			}
			stepStart = time.Now()
			sh.AddBarrier(stepStart.Sub(t1))
		}
	}
}

// Run executes the compiled schedule over the stage graph through the
// double buffer, recording the run into the executor's collector. It blocks
// until the final store lands. Steady-state Runs (same schedule, warmed
// arenas) perform zero heap allocations and spawn zero goroutines.
func (e *Executor) Run(b *Buffers, stages []Stage, sched *Schedule, tracer *trace.Recorder) error {
	if len(stages) == 0 {
		return fmt.Errorf("stagegraph: empty graph")
	}
	if b == nil {
		return fmt.Errorf("stagegraph: nil buffers")
	}
	if sched == nil {
		return fmt.Errorf("stagegraph: nil schedule")
	}
	if err := sched.matches(stages); err != nil {
		return err
	}
	for i := range stages {
		if err := stages[i].validate(i, b); err != nil {
			return err
		}
	}
	e.panicMu.Lock()
	broken, closed := e.broken, e.closed
	e.panicMu.Unlock()
	if closed {
		return fmt.Errorf("stagegraph: executor closed")
	}
	if broken {
		return fmt.Errorf("stagegraph: executor broken by earlier panic: %v", e.panicErr)
	}

	// Size the per-data-worker fold scratch for any StoreRadix stages before
	// the workers wake; a run without fold stages leaves it untouched.
	need := 0
	for i := range stages {
		if stages[i].StoreRadix != 0 {
			if _, unitLen := stages[i].storeGeometry(); unitLen > need {
				need = unitLen
			}
		}
	}
	if need > 0 {
		if e.storeScratch == nil {
			e.storeScratch = make([][]complex128, e.dataWorkers)
		}
		for w := range e.storeScratch {
			if len(e.storeScratch[w]) < need {
				e.storeScratch[w] = make([]complex128, need)
			}
		}
	}

	e.runBufs, e.runStages, e.runSched, e.runTracer = b, stages, sched, tracer
	start := time.Now()
	if !e.startBar.Wait() {
		return fmt.Errorf("stagegraph: executor closed")
	}
	if !e.finishBar.Wait() {
		return fmt.Errorf("stagegraph: executor closed")
	}
	wall := time.Since(start)
	// Drop the graph reference so a parked executor does not pin the
	// caller's arrays (or, via the compute closures, the plan itself —
	// which would defeat the plan finalizer that closes us).
	e.runBufs, e.runStages, e.runSched, e.runTracer = nil, nil, nil, nil

	e.panicMu.Lock()
	perr := e.panicErr
	e.panicMu.Unlock()
	if perr != nil {
		return perr
	}
	e.obs.RunDone(sched.steps, sched.busyBoth, wall)
	return nil
}
