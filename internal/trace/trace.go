// Package trace records pipeline execution events so tests can prove — not
// just assume — the lanes' schedule: every block of every stage is loaded,
// computed and stored exactly once, in that order, by the lane that owns
// it, and no stage starts before the last store of the one before it.
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

// Event is one recorded lane action: Op of iteration Iter (the i of
// R_{b,i}/W_{b,i}) of stage Stage, run by lane Lane.
type Event struct {
	Op    Op
	Stage int
	Iter  int
	Lane  int
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
	// Stable: one lane's back-to-back ops may read the same clock.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
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

// CheckLanes verifies that the recorded events are the lane schedule of a
// graph with the given per-stage iteration counts on the given number of
// lanes: lane l owns the contiguous share [l·n/L, (l+1)·n/L) of each
// stage's n iterations (the remainder going to the lowest lanes); it loads
// (unless the stage folds its load), computes and stores each of them
// exactly once, in that order and one block after another; and no op of
// stage s+1 starts before the last store of stage s has ended.
func (r *Recorder) CheckLanes(iters []int, lanes int) error {
	type slot struct{ stage, iter int }
	last := map[int]Event{} // lane → its previous event
	done := map[slot][3]int{}
	stageEnd := make([]time.Time, len(iters))
	for _, e := range r.Events() {
		if e.Stage < 0 || e.Stage >= len(iters) {
			return fmt.Errorf("event with stage %d outside graph of %d stages", e.Stage, len(iters))
		}
		n := iters[e.Stage]
		if e.Iter < 0 || e.Iter >= n {
			return fmt.Errorf("stage %d: iter %d outside [0,%d)", e.Stage, e.Iter, n)
		}
		if lo, hi := share(n, e.Lane, lanes); e.Iter < lo || e.Iter >= hi {
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
			if (same && e.Op <= p.Op) || (!same && (!next || p.Op != Store || e.Op == Store)) {
				return fmt.Errorf("lane %d: %v of stage %d iter %d after %v of stage %d iter %d",
					e.Lane, e.Op, e.Stage, e.Iter, p.Op, p.Stage, p.Iter)
			}
		} else if e.Op == Store {
			return fmt.Errorf("lane %d: starts with a store", e.Lane)
		}
		last[e.Lane] = e
		if e.Op == Store && e.End.After(stageEnd[e.Stage]) {
			stageEnd[e.Stage] = e.End
		}
	}
	for s, n := range iters {
		for i := 0; i < n; i++ {
			c := done[slot{s, i}]
			if c[Compute] != 1 || c[Store] != 1 {
				return fmt.Errorf("stage %d: iter %d computed %d and stored %d times", s, i, c[Compute], c[Store])
			}
		}
	}
	for _, e := range r.Events() {
		if e.Stage > 0 && e.Start.Before(stageEnd[e.Stage-1]) {
			return fmt.Errorf("stage %d: %v of iter %d started before stage %d's last store ended",
				e.Stage, e.Op, e.Iter, e.Stage-1)
		}
	}
	return nil
}

// share is lane l's range of n iterations over L lanes.
func share(n, l, lanes int) (lo, hi int) {
	base, rem := n/lanes, n%lanes
	lo = l*base + min(l, rem)
	hi = lo + base
	if l < rem {
		hi++
	}
	return lo, hi
}
