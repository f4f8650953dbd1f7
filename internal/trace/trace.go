// Package trace records pipeline execution events so tests can prove — not
// just assume — that the double-buffering schedule has the paper's Table II
// shape: a prologue that only loads, a steady state in which data movement
// and computation proceed in the same step on opposite buffer halves, and an
// epilogue that drains stores.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Op identifies what a worker did.
type Op int

const (
	Load Op = iota
	Compute
	Store
)

func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Compute:
		return "compute"
	case Store:
		return "store"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one recorded worker action. Iter is the pipeline iteration the
// action belongs to (the i of R_{b,i}/W_{b,i}), Step the schedule step it
// executed in, Buf the buffer half it touched. Stage is the stage-graph
// stage the action belongs to (0 for single-stage pipeline runs); under the
// fused executor Step is global across the whole transform, not per stage.
type Event struct {
	Op     Op
	Step   int
	Stage  int
	Iter   int
	Buf    int
	Worker int
	Role   string
	// Trace is the distributed trace ID of the sharded transform this event
	// belongs to ("" for purely local runs). It lets a coordinator pull one
	// transform's events out of a worker's always-on ring.
	Trace string
	Start time.Time
	End   time.Time
}

// Span is one tagged interval in the life of a serving request: Req is the
// request id assigned at admission, Name the phase ("queue" while waiting
// for a batch slot, "exec" while the transform runs). Spans let tests and
// operators attribute end-to-end latency to queueing versus execution.
type Span struct {
	Req  uint64
	Name string
	// Trace carries the distributed trace ID when the span belongs to a
	// sharded transform ("" otherwise); see Event.Trace.
	Trace string
	Start time.Time
	End   time.Time
}

// Recorder accumulates events. A nil *Recorder is valid and records nothing,
// so production paths can pass nil with zero overhead beyond a nil check.
// Recorders from New grow without bound — fine for tests that trace one
// transform; long-lived services should bound storage with NewRing.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	spans  []Span

	// cap bounds events and spans independently when > 0: once full, the
	// slices become rings and the oldest entry is overwritten. The
	// accessors re-sort by start time, so ring rotation never shows.
	cap       int
	eventHead int
	spanHead  int
}

// New returns an empty unbounded recorder.
func New() *Recorder { return &Recorder{} }

// NewRing returns a recorder that retains at most capacity events and
// capacity spans, discarding the oldest once full — bounded memory for
// always-on tracing in a long-lived process. capacity ≤ 0 is unbounded.
func NewRing(capacity int) *Recorder {
	if capacity < 0 {
		capacity = 0
	}
	return &Recorder{cap: capacity}
}

// Cap returns the retention bound (0 = unbounded).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Emit records one event. Safe for concurrent use; no-op on nil.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cap > 0 && len(r.events) == r.cap {
		r.events[r.eventHead] = e
		r.eventHead = (r.eventHead + 1) % r.cap
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// EmitSpan records one request span. Safe for concurrent use; no-op on nil.
func (r *Recorder) EmitSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cap > 0 && len(r.spans) == r.cap {
		r.spans[r.spanHead] = s
		r.spanHead = (r.spanHead + 1) % r.cap
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Spans returns a copy of all recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// SpansFor returns the spans tagged with one request id, sorted by start.
func (r *Recorder) SpansFor(req uint64) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Req == req {
			out = append(out, s)
		}
	}
	return out
}

// Events returns a copy of all recorded events sorted by start time.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Event(nil), r.events...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ForTrace returns the events and spans tagged with one distributed trace
// ID, each sorted by start time — what a worker serves from its always-on
// ring when a coordinator gathers a finished transform's timeline.
func (r *Recorder) ForTrace(trace string) ([]Event, []Span) {
	var events []Event
	for _, e := range r.Events() {
		if e.Trace == trace {
			events = append(events, e)
		}
	}
	var spans []Span
	for _, s := range r.Spans() {
		if s.Trace == trace {
			spans = append(spans, s)
		}
	}
	return events, spans
}

// ByStep groups events by schedule step.
func (r *Recorder) ByStep() map[int][]Event {
	m := make(map[int][]Event)
	for _, e := range r.Events() {
		m[e.Step] = append(m[e.Step], e)
	}
	return m
}

// OpsInStep returns the distinct operations that ran in a step, in
// load/compute/store order.
func OpsInStep(events []Event) []Op {
	var have [3]bool
	for _, e := range events {
		have[e.Op] = true
	}
	var ops []Op
	for _, o := range []Op{Load, Compute, Store} {
		if have[o] {
			ops = append(ops, o)
		}
	}
	return ops
}

// StageGraphBases returns the schedule base step of every stage in a
// multi-stage run with the given per-stage iteration counts: stage s loads
// its iteration i at step Bases[s]+i. Within a stage consecutive loads are
// one step apart; across a stage boundary the first load of stage s+1
// trails the last load of stage s by two steps when fused (it shares a step
// with the last store of stage s, on the same buffer half, ordered
// store-before-load by the engine) and by three steps when unfused (the
// drain-then-refill of separate pipeline runs).
func StageGraphBases(iters []int, fused bool) []int {
	bases := make([]int, len(iters))
	for s := 1; s < len(iters); s++ {
		bases[s] = bases[s-1] + iters[s-1] + 1
		if !fused {
			bases[s]++
		}
	}
	return bases
}

// CheckStageGraph verifies that the recorded events follow the fused (or
// unfused) stage-graph schedule for the given per-stage iteration counts:
// every load of (stage s, iter i) runs at step Bases[s]+i, its compute one
// step later and its store two steps later, all on buffer half
// (Bases[s]+i) mod 2; every expected (stage, iter, op) triple is present;
// and no event falls outside the schedule.
func (r *Recorder) CheckStageGraph(iters []int, fused bool) error {
	bases := StageGraphBases(iters, fused)
	seen := make(map[[3]int]bool) // (stage, iter, op)
	for _, e := range r.Events() {
		if e.Stage < 0 || e.Stage >= len(iters) {
			return fmt.Errorf("event with stage %d outside graph of %d stages", e.Stage, len(iters))
		}
		if e.Iter < 0 || e.Iter >= iters[e.Stage] {
			return fmt.Errorf("stage %d: iter %d outside [0,%d)", e.Stage, e.Iter, iters[e.Stage])
		}
		load := bases[e.Stage] + e.Iter
		want := load + int(e.Op) // Load=0, Compute=1, Store=2
		if e.Step != want {
			return fmt.Errorf("stage %d: %v of iter %d at step %d, want %d",
				e.Stage, e.Op, e.Iter, e.Step, want)
		}
		if e.Buf != load%2 {
			return fmt.Errorf("stage %d: %v of iter %d on buf %d, want %d",
				e.Stage, e.Op, e.Iter, e.Buf, load%2)
		}
		seen[[3]int{e.Stage, e.Iter, int(e.Op)}] = true
	}
	for s, n := range iters {
		for i := 0; i < n; i++ {
			for _, op := range []Op{Load, Compute, Store} {
				if !seen[[3]int{s, i, int(op)}] {
					return fmt.Errorf("stage %d: missing %v of iter %d", s, op, i)
				}
			}
		}
	}
	return nil
}

// DrainCount returns the number of pipeline-drain steps: steps in which a
// store ran but neither a load nor a compute did, i.e. steps where the
// whole machine waits for write-back. A single fused stage graph drains
// exactly once (its final store step); S unfused stages drain S times.
func (r *Recorder) DrainCount() int {
	n := 0
	for _, evs := range r.ByStep() {
		var load, comp, store bool
		for _, e := range evs {
			switch e.Op {
			case Load:
				load = true
			case Compute:
				comp = true
			case Store:
				store = true
			}
		}
		if store && !load && !comp {
			n++
		}
	}
	return n
}

// OverlapFraction estimates how much of the data-movement time can hide
// under computation given the recorded schedule: per step it credits
// min(dataDur, computeDur) as hidden and reports hidden / totalData.
// 1 means every byte moved while compute ran; 0 means no step had both.
func (r *Recorder) OverlapFraction() float64 {
	byStep := r.ByStep()
	var hidden, totalData time.Duration
	for _, evs := range byStep {
		var data, comp time.Duration
		for _, e := range evs {
			d := e.End.Sub(e.Start)
			if e.Op == Compute {
				comp += d
			} else {
				data += d
			}
		}
		totalData += data
		if data < comp {
			hidden += data
		} else {
			hidden += comp
		}
	}
	if totalData == 0 {
		return 0
	}
	return float64(hidden) / float64(totalData)
}
