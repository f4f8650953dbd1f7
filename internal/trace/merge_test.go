package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if IDFromContext(ctx) != "" {
		t.Fatal("empty context claims a trace ID")
	}
	id := NewTraceID()
	if IDFromContext(ContextWithID(ctx, id)) != id {
		t.Fatal("trace ID not carried")
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestForTraceFilters(t *testing.T) {
	r := New()
	base := time.Unix(1000, 0)
	e := mkEvent(Load, 0, 0, base)
	e.Trace = "ta"
	r.Emit(e)
	e.Trace = "tb"
	r.Emit(e)
	r.EmitSpan(Span{Req: 1, Name: "x", Trace: "ta", Start: base, End: base.Add(time.Microsecond)})
	r.EmitSpan(Span{Req: 2, Name: "y", Trace: "tb", Start: base, End: base.Add(time.Microsecond)})
	evs, spans := r.ForTrace("ta")
	if len(evs) != 1 || len(spans) != 1 || spans[0].Name != "x" {
		t.Fatalf("ForTrace(ta) = %d events %d spans", len(evs), len(spans))
	}
}

// TestWriteChromeNodesMerge checks the fleet merge: one process per node,
// clock offsets subtracted before the shared origin shift, span and event
// lanes per node, and trace IDs carried into args.
func TestWriteChromeNodesMerge(t *testing.T) {
	base := time.Unix(2000, 0)
	// Worker clock runs 5ms ahead of the coordinator; its events carry
	// worker-clock stamps, so after alignment both nodes start at t=0.
	const skew = 5 * time.Millisecond
	ev := mkEvent(Load, 0, 0, base.Add(skew))
	ev.Trace = "tX"
	nodes := []NodeTrace{
		{
			Name: "coordinator",
			Spans: []Span{
				{Req: 9, Name: "shard/scatter", Trace: "tX", Start: base, End: base.Add(100 * time.Microsecond)},
				{Req: 9, Name: "shard/gather", Trace: "tX", Start: base.Add(200 * time.Microsecond), End: base.Add(300 * time.Microsecond)},
			},
		},
		{
			Name:     "worker-0",
			OffsetNS: int64(skew),
			Events:   []Event{ev},
			Spans: []Span{
				{Req: 9, Name: "xchg 0→1 @0", Trace: "tX", Start: base.Add(skew + 50*time.Microsecond), End: base.Add(skew + 60*time.Microsecond)},
			},
		},
	}

	var buf bytes.Buffer
	if err := WriteChromeNodes(&buf, nodes); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("merged trace does not parse: %v\n%s", err, buf.String())
	}

	procNames := map[float64]string{}
	var workerEventTs = -1.0
	var scatterTs = -1.0
	tracedArgs := 0
	for _, e := range out {
		args, _ := e["args"].(map[string]any)
		if e["ph"] == "M" && e["name"] == "process_name" {
			procNames[e["pid"].(float64)] = args["name"].(string)
		}
		if e["ph"] == "X" {
			if args["trace"] == "tX" {
				tracedArgs++
			}
			switch e["name"] {
			case "shard/scatter":
				scatterTs = e["ts"].(float64)
			case "load s0 i0":
				workerEventTs = e["ts"].(float64)
			}
		}
	}
	if procNames[1] != "coordinator" || procNames[2] != "worker-0" {
		t.Fatalf("process lanes = %v, want coordinator + worker-0", procNames)
	}
	if scatterTs != 0 {
		t.Fatalf("scatter ts = %v µs, want 0 (merged origin)", scatterTs)
	}
	// The worker's event was stamped skew ahead; alignment must cancel the
	// skew exactly, landing it at the merged origin too.
	if workerEventTs != 0 {
		t.Fatalf("worker event ts = %v µs after alignment, want 0", workerEventTs)
	}
	if tracedArgs != 4 {
		t.Fatalf("complete events carrying trace arg = %d, want 4", tracedArgs)
	}
}

func TestWriteChromeNodesEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeNodes(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty merge produced %d entries", len(out))
	}
}
