package serve

import (
	"io"

	"repro/internal/obs"
)

// WritePrometheus renders the server's counters, queue gauges, plan-cache
// statistics and the request-latency histogram in Prometheus text
// exposition format (version 0.0.4). The histogram's buckets are the
// log₂-nanosecond buckets from metrics, expressed in seconds and scaled
// from the 1-in-8 latency sample back up to the settled-request
// population, so fft_request_duration_seconds_count tracks
// fft_requests_total{result="completed"|"failed"}.
func (s *Server) WritePrometheus(w io.Writer) error {
	snap := s.Stats()
	p := obs.NewPromWriter(w)

	p.Family("fft_requests_total", "Requests by final disposition.", "counter")
	p.Sample("fft_requests_total", float64(snap.Completed), "result", "completed")
	p.Sample("fft_requests_total", float64(snap.Failed), "result", "failed")
	p.Sample("fft_requests_total", float64(snap.Rejected), "result", "rejected")
	p.Sample("fft_requests_total", float64(snap.Cancelled), "result", "cancelled")

	p.Family("fft_requests_submitted_total", "Requests admitted past validation.", "counter")
	p.Sample("fft_requests_submitted_total", float64(snap.Submitted))

	p.Family("fft_batches_total", "Batches executed (same-shape 1D requests run together, or one request of any other kind).", "counter")
	p.Sample("fft_batches_total", float64(snap.Batches))

	p.Family("fft_batched_items_total", "Requests coalesced into batches.", "counter")
	p.Sample("fft_batched_items_total", float64(snap.BatchedItems))

	p.Family("fft_bytes_moved_total", "Estimated DRAM traffic for completed transforms.", "counter")
	p.Sample("fft_bytes_moved_total", float64(snap.BytesMoved))

	p.Family("fft_plan_executions_total", "Plan executions by pipeline kind (a coalesced batch counts once).", "counter")
	p.Sample("fft_plan_executions_total", float64(snap.ExecutionsComplex), "kind", "complex")
	p.Sample("fft_plan_executions_total", float64(snap.ExecutionsReal), "kind", "real")
	p.Sample("fft_plan_executions_total", float64(snap.ExecutionsSharded), "kind", "shard")

	p.Family("fft_plan_bytes_moved_total", "Request-level DRAM traffic by pipeline kind.", "counter")
	p.Sample("fft_plan_bytes_moved_total", float64(snap.BytesMovedComplex), "kind", "complex")
	p.Sample("fft_plan_bytes_moved_total", float64(snap.BytesMovedReal), "kind", "real")
	p.Sample("fft_plan_bytes_moved_total", float64(snap.BytesMovedSharded), "kind", "shard")

	p.Family("fft_queue_depth", "Requests waiting in the admission queue.", "gauge")
	p.Sample("fft_queue_depth", float64(snap.QueueDepth))

	p.Family("fft_queue_capacity", "Admission queue capacity.", "gauge")
	p.Sample("fft_queue_capacity", float64(snap.QueueCapacity))

	p.Family("fft_healthy", "1 while the server accepts requests, 0 once draining.", "gauge")
	healthy := 0.0
	if snap.Healthy {
		healthy = 1
	}
	p.Sample("fft_healthy", healthy)

	p.Family("fft_plan_cache_entries", "Plans resident in the LRU cache.", "gauge")
	p.Sample("fft_plan_cache_entries", float64(snap.Cache.Len))

	p.Family("fft_plan_cache_capacity", "Plan cache capacity.", "gauge")
	p.Sample("fft_plan_cache_capacity", float64(snap.Cache.Capacity))

	p.Family("fft_plan_cache_hits_total", "Plan cache hits.", "counter")
	p.Sample("fft_plan_cache_hits_total", float64(snap.Cache.Hits))

	p.Family("fft_plan_cache_misses_total", "Plan cache misses.", "counter")
	p.Sample("fft_plan_cache_misses_total", float64(snap.Cache.Misses))

	p.Family("fft_plan_cache_evictions_total", "Plans evicted from the cache.", "counter")
	p.Sample("fft_plan_cache_evictions_total", float64(snap.Cache.Evictions))

	p.Family("fft_request_duration_seconds",
		"Queue-to-settlement latency, sampled 1-in-8 and scaled to all settled requests.",
		"histogram")
	counts := s.m.latencyCounts()
	scale, count := s.m.latencyScale()
	obs.Log2Histogram(p, "fft_request_duration_seconds", &counts, scale, s.m.latencySumNs.Load(), count)

	return p.Err()
}
