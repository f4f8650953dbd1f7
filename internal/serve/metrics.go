package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metrics is the server's hot-path instrumentation: plain atomics so the
// executors never take a lock, plus a log₂-bucketed latency histogram from
// which the snapshot derives quantiles. 64 buckets at nanosecond base
// cover every observable duration.
type metrics struct {
	submitted    atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	rejected     atomic.Uint64
	cancelled    atomic.Uint64
	batches      atomic.Uint64
	batchedItems atomic.Uint64
	bytesMoved   atomic.Uint64

	// Per-kind plan accounting: one execution is one call into a cached
	// plan (a coalesced batch counts once), split by complex vs real
	// pipelines, with the matching request-level byte split.
	execComplex  atomic.Uint64
	execReal     atomic.Uint64
	execShard    atomic.Uint64
	bytesComplex atomic.Uint64
	bytesReal    atomic.Uint64
	bytesShard   atomic.Uint64

	latency        [64]atomic.Uint64 // bucket i counts latencies in [2^i, 2^(i+1)) ns
	latencySamples atomic.Uint64     // raw observations feeding the histogram
	latencySumNs   atomic.Uint64     // sum of those observations
}

func (m *metrics) observeLatency(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		ns = 1
	}
	m.latency[bits.Len64(ns)-1].Add(1)
	m.latencySamples.Add(1)
	m.latencySumNs.Add(ns)
}

// CacheSnapshot mirrors lru.Stats for the wire format.
type CacheSnapshot struct {
	Len       int    `json:"len"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Snapshot is a point-in-time view of the server's counters, shaped for
// JSON (the /metrics endpoint serves it verbatim).
type Snapshot struct {
	Healthy       bool `json:"healthy"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`

	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`

	Batches      uint64  `json:"batches"`
	BatchedItems uint64  `json:"batched_items"`
	AvgBatch     float64 `json:"avg_batch"` // mean batch occupancy

	BytesMoved uint64 `json:"bytes_moved"`

	// Plan executions and request bytes split by pipeline kind; the bytes
	// split sums to BytesMoved.
	ExecutionsComplex uint64 `json:"executions_complex"`
	ExecutionsReal    uint64 `json:"executions_real"`
	ExecutionsSharded uint64 `json:"executions_sharded"`
	BytesMovedComplex uint64 `json:"bytes_moved_complex"`
	BytesMovedReal    uint64 `json:"bytes_moved_real"`
	BytesMovedSharded uint64 `json:"bytes_moved_sharded"`

	P50LatencyNs int64 `json:"p50_latency_ns"`
	P99LatencyNs int64 `json:"p99_latency_ns"`

	// The histogram samples roughly one settled request in eight (see
	// getItem), so its raw totals undercount. LatencySamples is the raw
	// observation count; LatencyCount is the settled-request population the
	// samples stand for — the scale the Prometheus exposition reports —
	// and AvgLatencyNs the sample mean. Quantiles are unaffected by the
	// uniform sampling and come from the raw buckets.
	LatencySamples uint64 `json:"latency_samples"`
	LatencyCount   uint64 `json:"latency_count"`
	AvgLatencyNs   int64  `json:"avg_latency_ns"`

	Cache CacheSnapshot `json:"cache"`
}

func (m *metrics) snapshot() Snapshot {
	counts := m.latencyCounts()
	s := Snapshot{
		Submitted:    m.submitted.Load(),
		Completed:    m.completed.Load(),
		Failed:       m.failed.Load(),
		Rejected:     m.rejected.Load(),
		Cancelled:    m.cancelled.Load(),
		Batches:      m.batches.Load(),
		BatchedItems: m.batchedItems.Load(),
		BytesMoved:   m.bytesMoved.Load(),

		ExecutionsComplex: m.execComplex.Load(),
		ExecutionsReal:    m.execReal.Load(),
		ExecutionsSharded: m.execShard.Load(),
		BytesMovedComplex: m.bytesComplex.Load(),
		BytesMovedReal:    m.bytesReal.Load(),
		BytesMovedSharded: m.bytesShard.Load(),
		P50LatencyNs:      obs.BucketQuantile(&counts, 0.50),
		P99LatencyNs:      obs.BucketQuantile(&counts, 0.99),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.BatchedItems) / float64(s.Batches)
	}
	s.LatencySamples = m.latencySamples.Load()
	if s.LatencySamples > 0 {
		s.LatencyCount = s.Completed + s.Failed
		s.AvgLatencyNs = int64(m.latencySumNs.Load() / s.LatencySamples)
	}
	return s
}

func (m *metrics) latencyCounts() (counts [64]uint64) {
	for i := range counts {
		counts[i] = m.latency[i].Load()
	}
	return counts
}

// latencyScale returns the factor that scales the sampled histogram back up
// to every settled (completed or failed) request, and that request count —
// the shape a Prometheus histogram expects, where _count must agree with the
// request counters rather than the sampling rate. With a tracer attached
// every request is stamped, so the scale factor degenerates to 1. Both are
// 0 before the first sample.
func (m *metrics) latencyScale() (scale, count float64) {
	samples := m.latencySamples.Load()
	if samples == 0 {
		return 0, 0
	}
	settled := m.completed.Load() + m.failed.Load()
	return float64(settled) / float64(samples), float64(settled)
}
