// Package trace records pipeline execution events so tests can prove — not
// just assume — the lanes' schedule (stagegraph.CheckLanes): every block of
// every stage is loaded, computed and stored exactly once, in that order,
// by the lane that owns it, and no stage starts before the last store of
// the one before it.
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
	// Folded marks a leg that rode inside the block's compute op: a load
	// its first sweep read in place, or a store its last sweep wrote
	// through. It lasts no time (Start = End).
	Folded bool `json:",omitempty"`
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
	// Oldest first, so that the stable sort keeps emission order.
	out := append(append([]Event(nil), r.events[r.eventHead:]...), r.events[:r.eventHead]...)
	// Stable: one lane's back-to-back ops may read the same clock, and a
	// folded leg reads its compute op's.
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
