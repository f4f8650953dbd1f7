package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder's origin; parent indexes the same
// recorder's spans (-1 for an op root); op is the op the span belongs to.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Op         int
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one client's spans in memory. A nil *recorder records
// nothing, so untraced ops run the same code with rec == nil.
type recorder struct {
	client int
	origin time.Time
	spans  []span
}

func newRecorder(client int, origin time.Time) *recorder {
	// Pre-sized so steady-state appends do not allocate inside an op.
	return &recorder{client: client, origin: origin, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (-1 when not recording).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) {
	if r == nil {
		return
	}
	r.spans[h].End = int64(time.Since(r.origin))
}

// add files a span whose interval was measured elsewhere (the server's own
// duration for a request), clipped to its parent.
func (r *recorder) add(name string, parent, op int, start, end int64) {
	if r == nil {
		return
	}
	p := r.spans[parent]
	start, end = max(start, p.Start), min(end, p.End)
	if end < start {
		end = start
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, edge int64 = 0, s.Start
		for _, c := range iv {
			if c[1] > edge {
				covered += c[1] - max(c[0], edge)
				edge = c[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanDurations collects the duration in ms of every span of the given name.
func spanDurations(recs []*recorder, name string) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Name == name {
				out = append(out, float64(s.dur())/1e6)
			}
		}
	}
	return out
}

// maxTraceSpans caps what one client contributes to the trace file: a 20 s
// serve1d pass records a few hundred thousand spans, and the file is for
// looking at, not for the metrics (those use every span).
const maxTraceSpans = 20000

// writeChromeTrace writes the recorders as Chrome trace_event JSON (load in
// Perfetto or chrome://tracing); each client is one tid.
func writeChromeTrace(path string, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for _, r := range recs {
		spans := r.spans[:min(len(r.spans), maxTraceSpans)]
		self := selfTimes(spans)
		for i, s := range spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: 1, Tid: r.client,
				Args: map[string]any{"op": s.Op, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
