package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	var counts [64]uint64
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := obs.BucketQuantile(&counts, q); got != 0 {
			t.Fatalf("quantile(empty, %v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var counts [64]uint64
	counts[5] = 10 // latencies in [32, 64) ns → upper bound 64ns
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := obs.BucketQuantile(&counts, q); got != 64 {
			t.Fatalf("quantile(single bucket, %v) = %v, want 64ns", q, got)
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	var counts [64]uint64
	counts[3] = 50  // [8, 16) ns
	counts[10] = 50 // [1024, 2048) ns
	if got := obs.BucketQuantile(&counts, 0); got != 16 {
		t.Fatalf("q=0 = %v, want first bucket bound 16ns", got)
	}
	if got := obs.BucketQuantile(&counts, 1); got != 2048 {
		t.Fatalf("q=1 = %v, want last bucket bound 2048ns", got)
	}
	// q=0.5: rank 50 falls in the second bucket (cum 50 is not > 50 at
	// bucket 3, becomes 100 > 50 at bucket 10).
	if got := obs.BucketQuantile(&counts, 0.5); got != 2048 {
		t.Fatalf("q=0.5 = %v, want 2048ns", got)
	}
}

func TestQuantileOverflowBuckets(t *testing.T) {
	// Buckets 62 and 63 would overflow time.Duration at 1<<63; the bound
	// is clamped to 1<<62.
	for _, i := range []int{62, 63} {
		var counts [64]uint64
		counts[i] = 1
		if got := obs.BucketQuantile(&counts, 0.5); got != 1<<62 {
			t.Fatalf("quantile(bucket %d) = %v, want 1<<62 ns", i, got)
		}
	}
}

func TestQuantileSyntheticDistribution(t *testing.T) {
	// 900 fast observations around 1µs, 91 around 1ms, 9 around 1s:
	// p50 must land in the fast band, p99 in the millisecond band (rank
	// 990 < cumulative 991), and the max (q=1) in the second band.
	// Round-trips through observeLatency to cover the bucketing path too.
	var m metrics
	for i := 0; i < 900; i++ {
		m.observeLatency(time.Microsecond)
	}
	for i := 0; i < 91; i++ {
		m.observeLatency(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		m.observeLatency(time.Second)
	}
	var counts [64]uint64
	for i := range counts {
		counts[i] = m.latency[i].Load()
	}
	p50 := time.Duration(obs.BucketQuantile(&counts, 0.50))
	p99 := time.Duration(obs.BucketQuantile(&counts, 0.99))
	max := time.Duration(obs.BucketQuantile(&counts, 1))
	if p50 < time.Microsecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want within 2× of 1µs", p50)
	}
	if p99 < time.Millisecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want within 2× of 1ms", p99)
	}
	if max < time.Second || max > 2*time.Second {
		t.Fatalf("max = %v, want within 2× of 1s", max)
	}
	if got := m.latencySamples.Load(); got != 1000 {
		t.Fatalf("samples = %d, want 1000", got)
	}
}

func TestObserveLatencyZeroDuration(t *testing.T) {
	var m metrics
	m.observeLatency(0)
	if m.latency[0].Load() != 1 {
		t.Fatal("zero duration must land in the first bucket")
	}
	if m.latencySumNs.Load() != 1 {
		t.Fatalf("zero duration clamps to 1ns in the sum, got %d", m.latencySumNs.Load())
	}
}

// TestLatencyScaledConsistency simulates the 1-in-8 sampling: 10 sampled
// observations standing for 80 settled requests must scale up so the
// histogram totals agree with the request counters.
func TestLatencyScaledConsistency(t *testing.T) {
	var m metrics
	m.completed.Store(75)
	m.failed.Store(5)
	for i := 0; i < 10; i++ {
		m.observeLatency(time.Millisecond)
	}
	scale, count := m.latencyScale()
	if count != 80 || scale != 8 {
		t.Fatalf("scale %v to count %v, want 8 to 80", scale, count)
	}
	var b strings.Builder
	p := obs.NewPromWriter(&b)
	counts := m.latencyCounts()
	obs.Log2Histogram(p, "h", &counts, scale, m.latencySumNs.Load(), count)
	// 1 ms lands in the bucket [2^19, 2^20) ns, whose bound is 2^20 ns.
	for _, want := range []string{`h_bucket{le="0.001048576"} 80`, `h_bucket{le="+Inf"} 80`, "h_sum 0.08\n", "h_count 80\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}

	snap := m.snapshot()
	if snap.LatencySamples != 10 || snap.LatencyCount != 80 {
		t.Fatalf("snapshot samples/count = %d/%d, want 10/80",
			snap.LatencySamples, snap.LatencyCount)
	}
	if snap.AvgLatencyNs != time.Millisecond.Nanoseconds() {
		t.Fatalf("avg latency = %dns, want 1ms", snap.AvgLatencyNs)
	}
}

func TestLatencyScaledEmpty(t *testing.T) {
	var m metrics
	m.completed.Store(5) // settled requests but no samples yet
	if scale, count := m.latencyScale(); scale != 0 || count != 0 {
		t.Fatalf("empty histogram scaled by %v to count %v", scale, count)
	}
}

// TestWritePrometheusExposition drives a live server and checks the
// rendered exposition parses, has no duplicate series, and keeps the
// histogram count consistent with the settled-request counters.
func TestWritePrometheusExposition(t *testing.T) {
	s := New(Options{Config: smallCfg()})
	defer s.Shutdown(context.Background())

	const n = 64
	for i := 0; i < 24; i++ {
		src := testVec(n, i)
		dst := make([]complex128, n)
		if err := s.Do(context.Background(), Request{
			Rank: 1, Dims: [3]int{n}, Src: src, Dst: dst}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ValidateExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}

	byName := map[string]float64{}
	for _, smp := range samples {
		if len(smp.Labels) == 0 {
			byName[smp.Name] = smp.Value
		}
		if smp.Name == "fft_requests_total" && smp.Labels["result"] == "completed" {
			byName["completed"] = smp.Value
		}
	}
	if byName["completed"] != 24 {
		t.Fatalf("completed = %v, want 24", byName["completed"])
	}
	snap := s.Stats()
	wantCount := float64(snap.Completed + snap.Failed)
	if got := byName["fft_request_duration_seconds_count"]; got != wantCount {
		t.Fatalf("histogram count = %v, want settled count %v", got, wantCount)
	}
	if byName["fft_healthy"] != 1 {
		t.Fatal("healthy gauge not 1 on a live server")
	}
	for _, required := range []string{
		"fft_requests_submitted_total", "fft_batches_total",
		"fft_bytes_moved_total", "fft_queue_capacity",
		"fft_plan_cache_entries", "fft_request_duration_seconds_sum",
	} {
		if _, ok := byName[required]; !ok {
			t.Fatalf("missing sample %s in exposition:\n%s", required, buf.String())
		}
	}
}
