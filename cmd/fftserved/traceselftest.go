package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wire"
)

// runTraceSelftest is the `make tracesmoke` mode: a loopback cluster of
// three worker fftserved instances plus a coordinator front-end runs one
// traced sharded transform through the real HTTP surface, then every
// observability claim of the fleet tier is checked end to end:
//
//   - the /transform response carries an X-Trace-Id,
//   - /debug/trace/<id> serves one merged Chrome trace with a distinct
//     process lane per node (coordinator + every worker), the coordinator's
//     scatter/gather spans, and at least one exchange-chunk span per
//     ordered peer pair visible on both the sender's and receiver's lane,
//   - /metrics/fleet is a valid exposition carrying every node's samples
//     under node labels, including fft_build_info,
//   - /debug/flightrec retains the request with its trace ID.
func runTraceSelftest(cfg core.Config) error {
	const workers = 3
	const n = 48 // divisible by 3; big enough for several exchange chunks

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	var nodes []*shardNode
	var urls []string
	for i := 0; i < workers; i++ {
		wh := &handler{
			s:      serve.New(serve.Options{Config: cfg, Logger: logger}),
			worker: shard.NewWorker(shard.WorkerOptions{Logger: logger}),
		}
		node, err := startShardNode(wh)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
		urls = append(urls, node.base)
	}
	coord, err := shard.NewCoordinator(shard.CoordinatorOptions{Nodes: urls, Logger: logger})
	if err != nil {
		return err
	}
	front, err := startShardNode(&handler{
		s:          serve.New(serve.Options{Config: cfg, ShardRunner: coordRunner{coord}, Logger: logger}),
		coord:      coord,
		fleetPeers: urls,
		flight:     flightrec.New(64),
	})
	if err != nil {
		return err
	}

	// One traced sharded transform through the wire format.
	traceID, err := tracedTransform(front.base, n)
	if err != nil {
		return err
	}
	log.Printf("fftserved: traced %d³ across %d workers: trace %s", n, workers, traceID)

	if err := checkMergedTrace(front.base, traceID, workers); err != nil {
		return err
	}
	if err := checkFleetMetrics(front.base, urls); err != nil {
		return err
	}
	if err := checkFlightRecorder(front.base, traceID); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, node := range append(nodes, front) {
		if err := node.h.s.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve drain: %w", err)
		}
		if node.h.worker != nil {
			if err := node.h.worker.Drain(ctx); err != nil {
				return fmt.Errorf("worker drain: %w", err)
			}
		}
		if err := node.srv.Shutdown(ctx); err != nil {
			return err
		}
		if node.h.worker != nil {
			node.h.worker.Close()
		}
	}
	return nil
}

// tracedTransform POSTs one sharded forward transform and returns the
// trace ID the server assigned (the X-Trace-Id response header).
func tracedTransform(base string, n int) (string, error) {
	size := n * n * n
	data := make([]float64, 2*size)
	for i := range data {
		data[i] = math.Sin(float64(i+1) * 0.7)
	}
	body, err := marshalJSONRequest(wire.Shape{Rank: 3, Dims: [3]int{n, n, n}, Sharded: true}, data)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/transform", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("sharded transform: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		return "", fmt.Errorf("transform response carries no X-Trace-Id header")
	}
	return id, nil
}

// chromeTraceEvent is the subset of the Chrome trace_event entry the
// selftest asserts on.
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// checkMergedTrace pulls /debug/trace/<id> and validates the merged fleet
// timeline: one process lane per node, coordinator phase spans, and both
// sides of at least one exchange-chunk transfer per ordered peer pair.
func checkMergedTrace(base, id string, workers int) error {
	resp, err := http.Get(base + "/debug/trace/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("/debug/trace/%s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var events []chromeTraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		return fmt.Errorf("/debug/trace/%s: not a Chrome trace JSON array: %w", id, err)
	}

	procName := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			procName[e.Pid], _ = e.Args["name"].(string)
		}
	}
	if len(procName) != workers+1 {
		return fmt.Errorf("merged trace has %d process lanes, want %d (coordinator + %d workers): %v",
			len(procName), workers+1, workers, procName)
	}
	coordPid, workerPid := 0, map[int]int{}
	for pid, name := range procName {
		if name == "coordinator" {
			coordPid = pid
			continue
		}
		var wi int
		if _, err := fmt.Sscanf(name, "worker %d", &wi); err != nil {
			return fmt.Errorf("unexpected process lane %q", name)
		}
		workerPid[wi] = pid
	}
	if coordPid == 0 || len(workerPid) != workers {
		return fmt.Errorf("lanes missing: coordinator pid %d, workers %v", coordPid, workerPid)
	}

	spansOn := map[int]map[string]bool{}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if spansOn[e.Pid] == nil {
			spansOn[e.Pid] = map[string]bool{}
		}
		spansOn[e.Pid][e.Name] = true
	}
	for _, want := range []string{"shard/begin", "shard/scatter", "shard/run", "shard/gather"} {
		if !spansOn[coordPid][want] {
			return fmt.Errorf("coordinator lane missing span %q", want)
		}
	}
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
				return fmt.Errorf("sender lane (worker %d) missing exchange span %s…", from, prefix)
			}
			if !hasPrefix(workerPid[to]) {
				return fmt.Errorf("receiver lane (worker %d) missing exchange span %s…", to, prefix)
			}
		}
	}
	return nil
}

// checkFleetMetrics scrapes /metrics/fleet and validates the merged
// exposition: it must parse and histogram-check cleanly, carry a node
// label on every sample, cover self plus every peer, and include each
// node's fft_build_info.
func checkFleetMetrics(base string, peers []string) error {
	resp, err := http.Get(base + "/metrics/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("/metrics/fleet: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	samples, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics/fleet: invalid exposition: %w", err)
	}
	wantNodes := map[string]bool{"self": false}
	for _, p := range peers {
		wantNodes[p] = false
	}
	buildNodes := map[string]bool{}
	for _, s := range samples {
		node := s.Labels["node"]
		if node == "" {
			return fmt.Errorf("/metrics/fleet: sample %s has no node label", s.Series())
		}
		if _, known := wantNodes[node]; !known {
			return fmt.Errorf("/metrics/fleet: unexpected node %q", node)
		}
		wantNodes[node] = true
		if s.Name == "fft_build_info" {
			buildNodes[node] = true
		}
	}
	for node, seen := range wantNodes {
		if !seen {
			return fmt.Errorf("/metrics/fleet: no samples from node %q", node)
		}
		if !buildNodes[node] {
			return fmt.Errorf("/metrics/fleet: node %q missing fft_build_info", node)
		}
	}
	return nil
}

// checkFlightRecorder confirms the traced request landed in the flight
// recorder ring with its trace ID.
func checkFlightRecorder(base, traceID string) error {
	var rec struct {
		Total   uint64            `json:"total"`
		Entries []flightrec.Entry `json:"entries"`
	}
	if err := getJSON(base+"/debug/flightrec", &rec); err != nil {
		return fmt.Errorf("/debug/flightrec: %w", err)
	}
	if rec.Total == 0 || len(rec.Entries) == 0 {
		return fmt.Errorf("/debug/flightrec: empty after a served request")
	}
	for _, e := range rec.Entries {
		if e.TraceID == traceID {
			if e.Kind != "shard" || e.Status != "ok" {
				return fmt.Errorf("/debug/flightrec: entry for %s is %s/%s, want shard/ok", traceID, e.Kind, e.Status)
			}
			return nil
		}
	}
	return fmt.Errorf("/debug/flightrec: no entry for trace %s", traceID)
}
