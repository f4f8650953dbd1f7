package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// NodeTrace is one node's contribution to a fleet-wide timeline: the
// events and spans it recorded for a single distributed trace, plus the
// estimated offset of its clock relative to the coordinator's. The
// coordinator measures OffsetNS from the /shard/begin round-trip
// (offset = workerNow − midpoint of the request), so subtracting it maps
// every node's timestamps onto the coordinator's clock.
type NodeTrace struct {
	Name     string  `json:"name"`
	OffsetNS int64   `json:"offset_ns"`
	Events   []Event `json:"events,omitempty"`
	Spans    []Span  `json:"spans,omitempty"`
}

// WriteChromeNodes merges per-node traces into a single Chrome trace_event
// JSON array: one process lane per node (the order given — coordinator
// first by convention), pipeline events on (role, worker) threads and
// spans on per-name threads within each node's process, all timestamps
// aligned to the first node's clock via each node's OffsetNS and shifted
// so the merged trace opens at t=0. Perfetto renders the result as one
// fleet timeline with exchange send/recv spans correlated across lanes by
// name and trace ID.
func WriteChromeNodes(w io.Writer, nodes []NodeTrace) error {
	aligned := func(nt NodeTrace, t time.Time) time.Time {
		return t.Add(-time.Duration(nt.OffsetNS))
	}

	var origin time.Time
	for _, nt := range nodes {
		for _, e := range nt.Events {
			if t := aligned(nt, e.Start); origin.IsZero() || t.Before(origin) {
				origin = t
			}
		}
		for _, s := range nt.Spans {
			if t := aligned(nt, s.Start); origin.IsZero() || t.Before(origin) {
				origin = t
			}
		}
	}
	us := func(t time.Time) float64 {
		return float64(t.Sub(origin).Nanoseconds()) / 1e3
	}

	var out []chromeEvent
	for ni, nt := range nodes {
		pid := ni + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": nt.Name},
		})
		// Span lanes first (tid 1..len(names)): scheduling phases above the
		// pipeline detail, one lane per span name in first-seen order so
		// scatter/run/gather stack the way the transform ran.
		spans := append([]Span(nil), nt.Spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		spanTid := map[string]uint64{}
		for _, s := range spans {
			if _, ok := spanTid[s.Name]; !ok {
				tid := uint64(len(spanTid) + 1)
				spanTid[s.Name] = tid
				out = append(out, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": s.Name},
				})
			}
		}
		// Pipeline lanes after the spans, in lane order as in the
		// single-node export.
		lanes, laneTid := laneRows(nt.Events, uint64(len(spanTid)+1))
		for _, l := range lanes {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: laneTid[l],
				Args: map[string]any{"name": fmt.Sprintf("lane/%d", l)},
			})
		}
		for _, s := range spans {
			args := map[string]any{"req": s.Req}
			if s.Trace != "" {
				args["trace"] = s.Trace
			}
			out = append(out, chromeEvent{
				Name: s.Name,
				Ph:   "X",
				Ts:   us(aligned(nt, s.Start)),
				Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
				Pid:  pid,
				Tid:  spanTid[s.Name],
				Args: args,
			})
		}
		for _, e := range nt.Events {
			args := map[string]any{"op": e.Op.String(), "stage": e.Stage, "iter": e.Iter}
			if e.Trace != "" {
				args["trace"] = e.Trace
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%v s%d i%d", e.Op, e.Stage, e.Iter),
				Ph:   "X",
				Ts:   us(aligned(nt, e.Start)),
				Dur:  float64(e.End.Sub(e.Start).Nanoseconds()) / 1e3,
				Pid:  pid,
				Tid:  laneTid[e.Lane],
				Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}
