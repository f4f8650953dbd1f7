// Package shard executes one large 3D FFT as the paper's slab-pencil
// decomposition (§IV-B, Table III), across the sockets of one process or a
// fleet of fftserved nodes: every slab owns a contiguous z-slab of the input
// and a y-slab of the output, runs its local stages on a persistent
// stagegraph.Executor, and the one data redistribution the algorithm needs —
// the stage-2 W² scatter — goes through one exchange seam. Local (the
// multi-socket plan) copies each block straight into the owning slab; over
// the network it becomes a chunked, pipelined exchange between workers.
//
// Roles:
//
//   - The Coordinator partitions the cube, routes repeated shapes to the
//     same workers via rendezvous hashing (so their plan caches stay
//     warm), scatters input slabs, triggers the run, and gathers output
//     slabs.
//   - A Worker holds an LRU of warm plans (graphs + executor + buffers),
//     receives its slab, runs stages 1+2 (the W² stores stream into
//     per-peer send buffers and ship as chunks while compute continues),
//     waits for the last inbound chunk, then runs stage 3 into its output
//     y-slab.
//
// Wire protocol (HTTP/1.1, keep-alive; payloads are raw little-endian
// float64 pairs, 16 bytes per complex element, guarded by a CRC32-C
// header; cross-endian fleets are not supported):
//
//	POST /shard/begin          JSON JobSpec; acquires the worker's plan
//	POST /shard/chunk?job=&kind=input|exchange&from=&off=&count=
//	POST /shard/run?job=&sign=
//	GET  /shard/result?job=&off=&count=
//	POST /shard/end?job=
//
// Every chunk transfer retries with exponential backoff on network
// errors, 5xx and checksum rejects; deadlines propagate from the serving
// layer via JobSpec and bound every wait. Failures surface as *Error with
// a typed Kind so callers can distinguish a corrupt link from an
// exhausted deadline.
//
// Because each slab's graph is a sharded stagegraph.Pencils — the same
// per-pencil kernel calls, μ and radix chain as the single-node plan —
// the result is bitwise identical to a single-node transform on either
// transport.
package shard

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Shape identifies a transform geometry for routing and plan caching.
type Shape struct {
	K, N, M int
}

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.K, s.N, s.M) }

// ErrKind classifies shard-tier failures.
type ErrKind int

const (
	// KindProtocol: malformed or out-of-order request, size mismatch,
	// unknown job. Not retryable.
	KindProtocol ErrKind = iota
	// KindNetwork: transport-level failure that survived every retry.
	KindNetwork
	// KindChecksum: payload failed CRC32-C verification on every attempt.
	KindChecksum
	// KindDeadline: the job's deadline expired mid-flight.
	KindDeadline
	// KindBusy: the worker is draining or its plan is held past the
	// acquisition deadline.
	KindBusy
)

func (k ErrKind) String() string {
	switch k {
	case KindProtocol:
		return "protocol"
	case KindNetwork:
		return "network"
	case KindChecksum:
		return "checksum"
	case KindDeadline:
		return "deadline"
	case KindBusy:
		return "busy"
	}
	return "unknown"
}

// Error is the shard tier's typed failure: which phase, which peer, what
// kind. errors.Is/As work through Unwrap.
type Error struct {
	Kind ErrKind
	Op   string // "begin", "scatter", "exchange", "run", "gather", "end"
	Peer string // base URL of the peer involved, "" for local failures
	Err  error
}

func (e *Error) Error() string {
	if e.Peer != "" {
		return fmt.Sprintf("shard: %s %s (peer %s): %v", e.Kind, e.Op, e.Peer, e.Err)
	}
	return fmt.Sprintf("shard: %s %s: %v", e.Kind, e.Op, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// AsError extracts a *Error from err's chain, if any.
func AsError(err error) (*Error, bool) {
	var se *Error
	ok := errors.As(err, &se)
	return se, ok
}

func errf(kind ErrKind, op, peer, format string, args ...any) *Error {
	return &Error{Kind: kind, Op: op, Peer: peer, Err: fmt.Errorf(format, args...)}
}

// JobSpec is the /shard/begin payload: everything a worker needs to build
// (or find cached) its slab plan and to address its peers.
type JobSpec struct {
	Job     string   `json:"job"`
	K       int      `json:"k"`
	N       int      `json:"n"`
	M       int      `json:"m"`
	Mu      int      `json:"mu"`
	Index   int      `json:"index"`
	Workers []string `json:"workers"` // base URLs in fleet order; len = shard count
	// ChunkElems is the exchange/gather chunk size in complex elements;
	// workers round it to a multiple of μ for exchange payloads.
	ChunkElems int `json:"chunk_elems"`
	// DeadlineUnixNano bounds every wait in the job; 0 means none.
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
	// Trace is the coordinator-assigned distributed trace ID; workers tag
	// their ring events and spans with it so /shard/trace?id= can hand the
	// coordinator this transform's slice of each node's timeline.
	Trace string `json:"trace,omitempty"`
}

// Shape returns the spec's transform geometry.
func (js JobSpec) Shape() Shape { return Shape{js.K, js.N, js.M} }

// validate checks a spec from the wire before a worker sizes anything from
// it: a job, an index inside its fleet, a cube core's shape rule accepts at
// wire.MaxElems elements (the cap /transform enforces), a split newGeom
// accepts and a chunk size within the cube's.
func (js JobSpec) validate() error {
	sk := len(js.Workers)
	if js.Job == "" || sk < 1 || js.Index < 0 || js.Index >= sk {
		return fmt.Errorf("bad spec: job/workers/index")
	}
	if err := core.ShapeOf(false, js.K, js.N, js.M).Check(wire.MaxElems); err != nil {
		return fmt.Errorf("bad spec: %s: %v", js.Shape(), err)
	}
	if js.ChunkElems < 0 || js.ChunkElems > wire.MaxElems {
		return fmt.Errorf("bad spec: chunk_elems %d", js.ChunkElems)
	}
	if _, err := newGeom(js.K, js.N, js.M, sk, js.Mu); err != nil {
		return fmt.Errorf("bad spec: %v", err)
	}
	return nil
}

// beginResult is the /shard/begin response. NowUnixNano is the worker's
// clock at reply time: the coordinator pairs it with the request's
// send/receive instants to estimate the worker's clock offset
// (offset = workerNow − round-trip midpoint), which aligns the node's
// lane in the merged fleet trace.
type beginResult struct {
	NowUnixNano int64 `json:"now_unix_nano"`
}

// runStats is the /shard/run response: the worker's own accounting,
// aggregated by the coordinator into obs.ShardMetrics.
type runStats struct {
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`
	ChunksSent     int64 `json:"chunks_sent"`
	ExchangeWaitNS int64 `json:"exchange_wait_ns"`
	FrontNS        int64 `json:"front_ns"`
	BackNS         int64 `json:"back_ns"`
}
