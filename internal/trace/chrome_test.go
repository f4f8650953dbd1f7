package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func mkEvent(op Op, iter, lane int, start time.Time) Event {
	return Event{
		Op: op, Stage: 0, Iter: iter, Lane: lane,
		Start: start, End: start.Add(time.Microsecond),
	}
}

func TestRingRecorderBoundsEvents(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		r.Emit(mkEvent(Load, i, 0, base.Add(time.Duration(i)*time.Millisecond)))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	// Oldest six overwritten; survivors are steps 6..9 in start order even
	// though the ring rotated.
	for i, e := range evs {
		if e.Iter != 6+i {
			t.Fatalf("event %d has iter %d, want %d (oldest-first after sort)", i, e.Iter, 6+i)
		}
	}

	for i := 0; i < 6; i++ {
		r.EmitSpan(Span{Req: uint64(i), Name: "exec",
			Start: base.Add(time.Duration(i) * time.Second)})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	if spans[0].Req != 2 || spans[3].Req != 5 {
		t.Fatalf("span window = [%d, %d], want [2, 5]", spans[0].Req, spans[3].Req)
	}
}

func TestRingRecorderUnboundedDefault(t *testing.T) {
	for _, r := range []*Recorder{New(), NewRing(0), NewRing(-3)} {
		base := time.Unix(0, 0)
		for i := 0; i < 100; i++ {
			r.Emit(mkEvent(Store, i, 1, base.Add(time.Duration(i))))
		}
		if got := len(r.Events()); got != 100 {
			t.Fatalf("unbounded recorder kept %d events, want 100", got)
		}
		if r.Cap() != 0 {
			t.Fatalf("cap = %d, want 0 (unbounded)", r.Cap())
		}
	}
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	r := New()
	base := time.Unix(1000, 0)
	r.Emit(mkEvent(Load, 0, 0, base))
	r.Emit(mkEvent(Compute, 0, 2, base.Add(2*time.Microsecond)))
	r.Emit(mkEvent(Store, 1, 1, base.Add(4*time.Microsecond)))
	r.EmitSpan(Span{Req: 7, Name: "queue", Start: base, End: base.Add(10 * time.Microsecond)})
	r.EmitSpan(Span{Req: 7, Name: "exec", Start: base.Add(10 * time.Microsecond), End: base.Add(30 * time.Microsecond)})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}

	var complete, meta int
	threadNames := map[string]bool{}
	var sawExecSpan bool
	for _, e := range out {
		switch e["ph"] {
		case "X":
			complete++
			ts, ok := e["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("complete event without non-negative ts: %v", e)
			}
			if e["name"] == "exec" {
				sawExecSpan = true
				if e["pid"].(float64) != servePid || e["tid"].(float64) != 7 {
					t.Fatalf("exec span in wrong lane: %v", e)
				}
				if ts != 10 {
					t.Fatalf("exec span ts = %v µs, want 10 (relative to trace start)", ts)
				}
			}
		case "M":
			meta++
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threadNames[args["name"].(string)] = true
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if complete != 5 {
		t.Fatalf("complete events = %d, want 3 ops + 2 spans", complete)
	}
	// Two process_name entries plus one thread_name per lane.
	if meta != 5 {
		t.Fatalf("metadata events = %d, want 5", meta)
	}
	for _, lane := range []string{"lane/0", "lane/1", "lane/2"} {
		if !threadNames[lane] {
			t.Fatalf("missing lane %q; have %v", lane, threadNames)
		}
	}
	if !sawExecSpan {
		t.Fatal("exec span missing from trace")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty recorder produced %d entries", len(out))
	}
}
