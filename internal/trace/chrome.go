package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace_event JSON array — the
// format chrome://tracing and Perfetto (ui.perfetto.dev) load directly.
// Complete events (ph "X") carry their duration; metadata events (ph "M")
// name processes and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds from trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pipelinePid = 1 // worker lanes: one thread per (role, worker)
	servePid    = 2 // request spans: one thread per request id
)

// WriteChromeTrace serializes every recorded event and span as a Chrome
// trace_event JSON array. Pipeline events land in process 1 with one
// timeline lane per worker ("data/0", "compute/1", …); serving-layer
// spans land in process 2 with one lane per request. Timestamps are
// microseconds relative to the earliest recorded start, so the trace
// opens at t=0 regardless of wall-clock origin.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	spans := r.Spans()

	var origin time.Time
	if len(events) > 0 {
		origin = events[0].Start
	}
	if len(spans) > 0 && (origin.IsZero() || spans[0].Start.Before(origin)) {
		origin = spans[0].Start
	}
	us := func(t time.Time) float64 {
		return float64(t.Sub(origin).Nanoseconds()) / 1e3
	}

	lanes, laneTid := laneRows(events, 1)

	out := make([]chromeEvent, 0, len(events)+len(spans)+len(lanes)+2)
	if len(events) > 0 {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pipelinePid,
			Args: map[string]any{"name": "fft pipeline"},
		})
		for _, l := range lanes {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pipelinePid, Tid: laneTid[l],
				Args: map[string]any{"name": fmt.Sprintf("lane/%d", l)},
			})
		}
	}
	for _, e := range events {
		args := map[string]any{"op": e.Op.String(), "stage": e.Stage, "iter": e.Iter}
		if e.Folded {
			args["folded"] = true
		}
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("%v s%d i%d", e.Op, e.Stage, e.Iter),
			Ph:   "X",
			Ts:   us(e.Start),
			Dur:  float64(e.End.Sub(e.Start).Nanoseconds()) / 1e3,
			Pid:  pipelinePid,
			Tid:  laneTid[e.Lane],
			Args: args,
		})
	}
	if len(spans) > 0 {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: servePid,
			Args: map[string]any{"name": "fft serve"},
		})
	}
	for _, s := range spans {
		out = append(out, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   us(s.Start),
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  servePid,
			Tid:  s.Req,
			Args: map[string]any{"req": s.Req},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// laneRows numbers the timeline rows of the lanes the events ran on, in
// lane order, from tid first up.
func laneRows(events []Event, first uint64) ([]int, map[int]uint64) {
	tid := map[int]uint64{}
	var lanes []int
	for _, e := range events {
		if _, ok := tid[e.Lane]; !ok {
			tid[e.Lane] = 0
			lanes = append(lanes, e.Lane)
		}
	}
	sort.Ints(lanes)
	for i, l := range lanes {
		tid[l] = first + uint64(i)
	}
	return lanes, tid
}
