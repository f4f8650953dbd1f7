// Package flightrec is a bounded in-memory flight recorder for the serving
// layer: the last N requests with their trace IDs, shapes, timings, and
// typed errors, served as JSON from /debug/flightrec. When a node
// misbehaves in a fleet, the recorder answers "what was it doing just
// now?" without scraping logs — the black-box counterpart to the live
// metrics exposition.
package flightrec

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Entry is one recorded request. Time is when the serving layer's Do began.
type Entry struct {
	Time     time.Time     `json:"time"`
	TraceID  string        `json:"trace_id,omitempty"`
	Kind     string        `json:"kind"` // complex | real | shard
	Dims     [3]int        `json:"dims"`
	Rank     int           `json:"rank"`
	Inverse  bool          `json:"inverse"`
	Duration time.Duration `json:"duration_ns"` // the serving layer's Do alone
	Status   string        `json:"status"`      // ok | error
	ErrKind  string        `json:"err_kind,omitempty"`
	Error    string        `json:"error,omitempty"`

	// The request's wire budget around Duration: Decode runs from the
	// handler's entry to operands ready, Encode from Do's return to the
	// last response byte written; the three sum to the handler's wall time.
	Codec     string        `json:"codec"` // json | bin
	Decode    time.Duration `json:"decode_ns"`
	Encode    time.Duration `json:"encode_ns"`
	ReqBytes  int64         `json:"req_bytes"`
	RespBytes int64         `json:"resp_bytes"`
}

// Recorder retains the most recent entries in a fixed ring. A nil
// *Recorder records nothing, so callers can leave it unconfigured.
type Recorder struct {
	mu      sync.Mutex
	entries []Entry
	head    int
	cap     int
	total   uint64
}

// New returns a recorder retaining up to capacity entries (minimum 1).
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{cap: capacity}
}

// Record appends one entry, evicting the oldest once full.
func (r *Recorder) Record(e Entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.entries) == r.cap {
		r.entries[r.head] = e
		r.head = (r.head + 1) % r.cap
	} else {
		r.entries = append(r.entries, e)
	}
	r.total++
	r.mu.Unlock()
}

// Entries returns the retained entries, newest first.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.entries))
	// The ring holds oldest at head; walk backward from the newest.
	for i := len(r.entries) - 1; i >= 0; i-- {
		out = append(out, r.entries[(r.head+i)%len(r.entries)])
	}
	return out
}

// Total returns how many entries were ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// ServeHTTP serves the retained entries as JSON: {"total": …, "capacity":
// …, "entries": [newest, …]}.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	capacity := 0
	if r != nil {
		capacity = r.cap
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Total    uint64  `json:"total"`
		Capacity int     `json:"capacity"`
		Entries  []Entry `json:"entries"`
	}{r.Total(), capacity, r.Entries()})
}
