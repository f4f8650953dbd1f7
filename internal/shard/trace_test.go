package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/trace"
)

// mergedEvent mirrors the Chrome trace_event entries WriteMergedTrace
// emits, for assertion purposes.
type mergedEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestClusterMergedTrace runs one traced transform on a 3-worker loopback
// cluster and checks the merged Perfetto timeline end to end: a distinct
// process lane per node (coordinator + every worker), the coordinator's
// scatter/gather spans, and at least one exchange-chunk span per ordered
// peer pair visible on both the sender's and the receiver's lane,
// correlated by span name and trace ID.
func TestClusterMergedTrace(t *testing.T) {
	const k, n, m, workers = 48, 48, 48, 3
	cl, err := StartCluster(workers, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	src := randCube(k*n*m, 11)
	dst := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if err := cl.Coord.Transform(ctx, dst, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("transform: %v", err)
	}

	id := cl.Coord.LastTraceID()
	if id == "" {
		t.Fatal("no trace ID retained after a successful transform")
	}

	var buf bytes.Buffer
	if err := cl.Coord.WriteMergedTrace(ctx, &buf, id); err != nil {
		t.Fatalf("WriteMergedTrace: %v", err)
	}
	var events []mergedEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	// One process lane per node, named via process_name metadata.
	procName := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			procName[e.Pid] = e.Args["name"].(string)
		}
	}
	if len(procName) != workers+1 {
		t.Fatalf("merged trace has %d process lanes, want %d (coordinator + %d workers): %v",
			len(procName), workers+1, workers, procName)
	}
	coordPid, workerPid := 0, map[int]int{} // worker index → pid
	for pid, name := range procName {
		if name == "coordinator" {
			coordPid = pid
			continue
		}
		var wi int
		var rest string
		if _, err := fmt.Sscanf(name, "worker %d %s", &wi, &rest); err != nil {
			t.Fatalf("unexpected process lane name %q", name)
		}
		workerPid[wi] = pid
	}
	if coordPid == 0 || len(workerPid) != workers {
		t.Fatalf("lanes missing: coordinator pid %d, worker pids %v", coordPid, workerPid)
	}

	// Coordinator phase spans, tagged with the trace ID.
	spansOn := map[int]map[string]bool{} // pid → span name set
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if spansOn[e.Pid] == nil {
			spansOn[e.Pid] = map[string]bool{}
		}
		spansOn[e.Pid][e.Name] = true
		if tr, ok := e.Args["trace"]; ok && tr != id {
			t.Fatalf("span %q carries trace %v, want %q", e.Name, tr, id)
		}
	}
	for _, want := range []string{"shard/begin", "shard/scatter", "shard/run", "shard/gather"} {
		if !spansOn[coordPid][want] {
			t.Fatalf("coordinator lane missing span %q (has %v)", want, spansOn[coordPid])
		}
	}
	// Every worker ran its local phases.
	for wi, pid := range workerPid {
		for _, want := range []string{"shard/front", "shard/exchange-wait", "shard/back"} {
			if !spansOn[pid][want] {
				t.Fatalf("worker %d lane missing span %q", wi, want)
			}
		}
	}

	// Exchange chunks: every ordered peer pair must show at least one
	// "xchg from→to @off" span on BOTH the sender's and the receiver's
	// lane — same name on each side is how the merged view correlates one
	// transfer across lanes.
	for from := 0; from < workers; from++ {
		for to := 0; to < workers; to++ {
			if from == to {
				continue
			}
			prefix := fmt.Sprintf("xchg %d→%d @", from, to)
			hasPrefix := func(pid int) bool {
				for name := range spansOn[pid] {
					if strings.HasPrefix(name, prefix) {
						return true
					}
				}
				return false
			}
			if !hasPrefix(workerPid[from]) {
				t.Fatalf("sender lane (worker %d) missing exchange span %s…", from, prefix)
			}
			if !hasPrefix(workerPid[to]) {
				t.Fatalf("receiver lane (worker %d) missing exchange span %s…", to, prefix)
			}
		}
	}

	// Worker pipeline events (stage executions) were tagged and merged too.
	pipelineEvents := 0
	for _, e := range events {
		if e.Ph == "X" && e.Pid != coordPid {
			if _, ok := e.Args["op"]; ok {
				pipelineEvents++
			}
		}
	}
	if pipelineEvents == 0 {
		t.Fatal("no worker pipeline (stage) events in merged trace")
	}
}

// TestTraceIDPropagatesFromContext: a serving-layer trace ID installed on
// the context is what the whole fleet tags, not a fresh coordinator one.
func TestTraceIDPropagatesFromContext(t *testing.T) {
	const k, n, m = 48, 48, 16
	cl, err := StartCluster(2, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	const id = "t-from-serving-layer"
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	ctx = trace.ContextWithID(ctx, id)

	src := randCube(k*n*m, 5)
	dst := make([]complex128, len(src))
	if err := cl.Coord.Transform(ctx, dst, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if got := cl.Coord.LastTraceID(); got != id {
		t.Fatalf("LastTraceID = %q, want the context's %q", got, id)
	}
	// Every worker's ring holds events/spans under that ID.
	for i, w := range cl.Workers {
		ev, sp := w.Trace(id)
		if len(sp) == 0 {
			t.Fatalf("worker %d has no spans for trace %q", i, id)
		}
		if len(ev) == 0 {
			t.Fatalf("worker %d has no pipeline events for trace %q", i, id)
		}
	}
}

// TestMergedTraceUnknownID: asking for an unretained trace is a typed
// protocol error, not a panic or an empty export.
func TestMergedTraceUnknownID(t *testing.T) {
	cl, err := StartCluster(2, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	var buf bytes.Buffer
	err = cl.Coord.WriteMergedTrace(context.Background(), &buf, "nope")
	se, ok := AsError(err)
	if !ok || se.Kind != KindProtocol {
		t.Fatalf("unknown trace: got %v, want KindProtocol *Error", err)
	}
}

// TestTracingDisabled: a negative TraceCapacity turns the whole machinery
// off — no IDs retained, no per-job allocation beyond the plain path.
func TestTracingDisabled(t *testing.T) {
	const k, n, m = 32, 32, 16
	cl, err := StartCluster(2, WorkerOptions{}, CoordinatorOptions{TraceCapacity: -1})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	src := randCube(k*n*m, 9)
	dst := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if err := cl.Coord.Transform(ctx, dst, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if got := cl.Coord.LastTraceID(); got != "" {
		t.Fatalf("tracing disabled but LastTraceID = %q", got)
	}
	checkBitwise(t, dst, singleNode(t, k, n, m, src, fft1d.Forward), "untraced")
}
