package shard

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fft1d"
	"repro/internal/obs"
	"repro/internal/wire"
)

// faultDoer wraps a real client and injects faults per URL: "drop"
// returns a transport error, "corrupt" breaks the CRC header so the
// receiver rejects the payload. match selects victim requests; firstOnly
// restricts the fault to each URL's first attempt (so retries recover),
// otherwise every attempt fails (so retries exhaust).
type faultDoer struct {
	inner     Doer
	mode      string
	match     func(*http.Request) bool
	firstOnly bool

	mu    sync.Mutex
	tries map[string]int
	hits  int
}

func (f *faultDoer) Do(req *http.Request) (*http.Response, error) {
	if f.match(req) {
		f.mu.Lock()
		if f.tries == nil {
			f.tries = make(map[string]int)
		}
		n := f.tries[req.URL.String()]
		f.tries[req.URL.String()] = n + 1
		inject := !f.firstOnly || n == 0
		if inject {
			f.hits++
		}
		f.mu.Unlock()
		if inject {
			switch f.mode {
			case "drop":
				return nil, errors.New("injected: connection reset by peer")
			case "corrupt":
				req.Header.Set(wire.HeaderCRC, "12345")
			}
		}
	}
	return f.inner.Do(req)
}

func isExchangeChunk(req *http.Request) bool {
	return strings.Contains(req.URL.Path, "/shard/chunk") &&
		req.URL.Query().Get("kind") == "exchange"
}

func faultCluster(t *testing.T, workers int, wclient, cclient Doer, m *obs.ShardMetrics) *Cluster {
	t.Helper()
	cl, err := StartCluster(workers,
		WorkerOptions{Client: wclient, Backoff: time.Millisecond, Metrics: m},
		CoordinatorOptions{Client: cclient, Backoff: time.Millisecond, Retries: 2, Metrics: m})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	return cl
}

// TestFaultDroppedChunksRecover: every exchange chunk's first attempt is
// dropped at the transport; retry-with-backoff must recover and the
// result must still be bitwise identical.
func TestFaultDroppedChunksRecover(t *testing.T) {
	fd := &faultDoer{inner: &http.Client{}, mode: "drop", match: isExchangeChunk, firstOnly: true}
	m := &obs.ShardMetrics{}
	cl := faultCluster(t, 3, fd, nil, m)
	defer cl.Close()

	k, n, m3 := 48, 48, 32
	src := randCube(k*n*m3, 11)
	got := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Coord.Transform(ctx, got, src, k, n, m3, fft1d.Forward); err != nil {
		t.Fatalf("transform with dropped chunks: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m3, src, fft1d.Forward), "dropped chunks")
	if fd.hits == 0 {
		t.Fatal("fault injector never fired — test proves nothing")
	}
	if m.Retries.Load() == 0 {
		t.Fatal("expected retry counter to advance")
	}
}

// TestFaultCorruptChunksRecover: every exchange chunk's first attempt
// carries a broken checksum; the worker must reject it (422) without
// committing any byte, and the retry's pristine copy must recover.
func TestFaultCorruptChunksRecover(t *testing.T) {
	fd := &faultDoer{inner: &http.Client{}, mode: "corrupt", match: isExchangeChunk, firstOnly: true}
	m := &obs.ShardMetrics{}
	cl := faultCluster(t, 3, fd, nil, m)
	defer cl.Close()

	k, n, m3 := 48, 48, 32
	src := randCube(k*n*m3, 12)
	got := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Coord.Transform(ctx, got, src, k, n, m3, fft1d.Forward); err != nil {
		t.Fatalf("transform with corrupt chunks: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m3, src, fft1d.Forward), "corrupt chunks")
	if m.ChunksRejected.Load() == 0 {
		t.Fatal("expected the worker to reject at least one corrupt chunk")
	}
}

// TestFaultPersistentCorruptionFailsTyped: one scatter chunk is corrupt
// on every attempt; after the retry budget the coordinator must fail
// cleanly with a typed KindChecksum error, release every worker (no job
// left behind), and the cluster must still serve the next transform.
func TestFaultPersistentCorruptionFailsTyped(t *testing.T) {
	var victim string
	var victimMu sync.Mutex
	fd := &faultDoer{inner: &http.Client{}, mode: "corrupt", match: func(req *http.Request) bool {
		if !strings.Contains(req.URL.Path, "/shard/chunk") || req.URL.Query().Get("kind") != "input" {
			return false
		}
		victimMu.Lock()
		defer victimMu.Unlock()
		if victim == "" {
			victim = req.URL.String()
		}
		return req.URL.String() == victim
	}}
	m := &obs.ShardMetrics{}
	cl := faultCluster(t, 3, nil, fd, m)
	defer cl.Close()

	k, n, m3 := 48, 48, 32
	src := randCube(k*n*m3, 13)
	got := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := cl.Coord.Transform(ctx, got, src, k, n, m3, fft1d.Forward)
	if err == nil {
		t.Fatal("expected persistent corruption to fail the transform")
	}
	se, ok := AsError(err)
	if !ok {
		t.Fatalf("error is not a typed *shard.Error: %v", err)
	}
	if se.Kind != KindChecksum {
		t.Fatalf("error kind = %v, want checksum (err: %v)", se.Kind, err)
	}
	if se.Op != "scatter" {
		t.Fatalf("error op = %q, want scatter", se.Op)
	}
	if m.JobsFailed.Load() != 1 {
		t.Fatalf("JobsFailed = %d, want 1", m.JobsFailed.Load())
	}
	// The failed job must not leak worker state: every worker idle, and
	// the very next transform (fault disabled) succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := 0
		for _, w := range cl.Workers {
			busy += w.ActiveJobs()
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs leaked after coordinator failure", busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
	victimMu.Lock()
	victim = "\x00never" // disable the fault
	victimMu.Unlock()
	if err := cl.Coord.Transform(ctx, got, src, k, n, m3, fft1d.Forward); err != nil {
		t.Fatalf("cluster did not recover after failed job: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m3, src, fft1d.Forward), "post-failure recovery")
}

// TestWorkerDrain: BeginDrain must refuse new jobs with 503 while an
// in-flight job — including its pipelined exchange — runs to completion,
// and Drain must not return before the last chunk settles.
func TestWorkerDrain(t *testing.T) {
	// Slow every exchange chunk down so the job is reliably in flight
	// when the drain starts.
	slow := &faultDoer{inner: &http.Client{}, mode: "", match: func(req *http.Request) bool {
		if isExchangeChunk(req) {
			time.Sleep(3 * time.Millisecond)
		}
		return false
	}}
	cl, err := StartCluster(3, WorkerOptions{Client: slow}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	k, n, m3 := 48, 48, 32
	src := randCube(k*n*m3, 14)
	got := make([]complex128, len(src))
	tErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		tErr <- cl.Coord.Transform(ctx, got, src, k, n, m3, fft1d.Forward)
	}()

	// Wait until the job is in flight on every worker (begin has
	// completed fleet-wide), so starting a drain can't reject it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		busy := 0
		for _, w := range cl.Workers {
			if w.ActiveJobs() > 0 {
				busy++
			}
		}
		if busy == len(cl.Workers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became active fleet-wide")
		}
		time.Sleep(500 * time.Microsecond)
	}

	w0 := cl.Workers[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w0.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := w0.ActiveJobs(); n != 0 {
		t.Fatalf("drain returned with %d active jobs", n)
	}
	if err := <-tErr; err != nil {
		t.Fatalf("in-flight transform failed during drain: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m3, src, fft1d.Forward), "drained transform")

	// Draining worker refuses new work.
	err = cl.Coord.Transform(context.Background(), got, src, k, n, m3, fft1d.Forward)
	se, ok := AsError(err)
	if !ok || se.Op != "begin" {
		t.Fatalf("expected a typed begin error from the draining worker, got %v", err)
	}
}
