package obs

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorSnapshotMergesShards(t *testing.T) {
	c := NewCollector(2, []string{"rows", "cols"}, 0)

	// Two lanes each load 1 KiB into stage 0 taking 1 µs, and one stores
	// 2 KiB in 2 µs. Lane 1 spends 4 µs computing stage 1.
	c.Shard(0).Add(0, Load, 1024, time.Microsecond)
	c.Shard(1).Add(0, Load, 1024, time.Microsecond)
	c.Shard(0).Add(0, Store, 2048, 2*time.Microsecond)
	c.Shard(1).Add(1, Compute, 0, 4*time.Microsecond)
	c.Shard(0).AddBarrier(3 * time.Microsecond)
	c.RunDone(10, 50*time.Microsecond)

	s := c.Snapshot()
	if s.Runs != 1 || s.Steps != 10 || s.BothBusySteps != 0 || s.DataWorkers != 2 || s.ComputeWorkers != 2 {
		t.Fatalf("run counters = %+v", s)
	}
	if s.BarrierWaitNs != 3000 {
		t.Fatalf("barrier ns = %d, want 3000", s.BarrierWaitNs)
	}
	if want := []LaneSnapshot{{LegNs: 3000, BarrierWaitNs: 3000}, {LegNs: 5000}}; !slices.Equal(s.Lanes, want) {
		t.Fatalf("lanes = %+v, want %+v", s.Lanes, want)
	}
	st := s.Stages[0]
	if st.Load.Bytes != 2048 || st.Load.Ops != 2 || st.Load.Ns != 2000 {
		t.Fatalf("stage0 load = %+v", st.Load)
	}
	// 2048 B over the busiest lane's 1000 ns of loads.
	if want := 2048.0 / 1000; math.Abs(st.Load.GBs-want) > 1e-12 {
		t.Fatalf("load GB/s = %v, want %v", st.Load.GBs, want)
	}
	if st.Store.Bytes != 2048 || st.Store.Ops != 1 {
		t.Fatalf("stage0 store = %+v", st.Store)
	}
	// Combined: 4096 B over lane 0's 1000 + 2000 ns of loads and stores.
	if want := 4096.0 / 3000; math.Abs(st.GBs-want) > 1e-12 {
		t.Fatalf("stage GB/s = %v, want %v", st.GBs, want)
	}
	if s.Stages[1].ComputeNs != 4000 || s.Stages[1].ComputeOps != 1 {
		t.Fatalf("stage1 compute = %+v", s.Stages[1])
	}
	if got, want := s.TotalBytes(), uint64(4096); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

// A stage with one block runs on one lane however many the plan has: its
// rates and seconds are that lane's, not halved or doubled by the idle one.
func TestCollectorOneBlockStageOnTwoLanes(t *testing.T) {
	c := NewCollector(2, []string{"batch"}, 8)
	for range 2 {
		c.Shard(0).Add(0, Load, 4000, time.Microsecond)
		c.Shard(0).Add(0, Compute, 0, 3*time.Microsecond)
		c.Shard(0).Add(0, Store, 4000, time.Microsecond)
		c.Shard(1).AddBarrier(5 * time.Microsecond)
		c.RunDone(1, 5*time.Microsecond)
	}
	st := c.Snapshot().Stages[0]
	if st.Load.GBs != 4 || st.Store.GBs != 4 || st.GBs != 4 || st.FracPeak != 0.5 {
		t.Fatalf("rates %v / %v / %v (frac %v), want bytes/ns = 4 GB/s (frac 0.5)",
			st.Load.GBs, st.Store.GBs, st.GBs, st.FracPeak)
	}
	if st.MeasuredDataSec != 2e-6 || st.MeasuredComputeSec != 3e-6 {
		t.Fatalf("measured data/compute sec %v / %v, want 2e-6 / 3e-6 a run",
			st.MeasuredDataSec, st.MeasuredComputeSec)
	}
}

func TestCollectorRoofline(t *testing.T) {
	c := NewCollector(1, []string{"s1"}, 16) // GB/s
	// 8 GB/s measured: 8000 B in 1000 ns, one lane.
	c.Shard(0).Add(0, Load, 8000, time.Microsecond)
	c.RunDone(5, 10*time.Microsecond)

	s := c.Snapshot()
	st := s.Stages[0]
	if math.Abs(st.GBs-8) > 1e-9 {
		t.Fatalf("GB/s = %v, want 8", st.GBs)
	}
	if math.Abs(st.FracPeak-0.5) > 1e-9 {
		t.Fatalf("FracPeak = %v, want 0.5", st.FracPeak)
	}
	// Measured data sec = 1000 ns / 1 run.
	if st.MeasuredDataSec != 1e-6 {
		t.Fatalf("measured data sec = %v, want 1e-6", st.MeasuredDataSec)
	}
}

func TestCollectorNilSafety(t *testing.T) {
	var c *Collector
	c.Shard(0).Add(0, Load, 1, time.Second) // nil shard from nil collector
	c.Shard(0).AddBarrier(time.Second)
	c.RunDone(1, time.Second)
	if c.Stages() != 0 {
		t.Fatal("nil collector must read as zero")
	}
	if s := c.Snapshot(); s.Runs != 0 || len(s.Stages) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// Out-of-range shard indices are nil, and nil shards swallow writes.
	real := NewCollector(1, []string{"a"}, 0)
	if real.Shard(5) != nil || real.Shard(-1) != nil {
		t.Fatal("out-of-range shard must be nil")
	}
}

func TestCollectorConcurrentRecording(t *testing.T) {
	const workers, perWorker = 4, 1000
	c := NewCollector(workers, []string{"s"}, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := c.Shard(w)
			for i := 0; i < perWorker; i++ {
				sh.Add(0, Load, 16, time.Nanosecond)
				sh.Add(0, Compute, 0, time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if got, want := s.Stages[0].Load.Ops, uint64(workers*perWorker); got != want {
		t.Fatalf("load ops = %d, want %d", got, want)
	}
	if got, want := s.Stages[0].Load.Bytes, uint64(16*workers*perWorker); got != want {
		t.Fatalf("load bytes = %d, want %d", got, want)
	}
	if got, want := s.Stages[0].ComputeOps, uint64(workers*perWorker); got != want {
		t.Fatalf("compute ops = %d, want %d", got, want)
	}
}

func TestRegistryCollisionSuffixes(t *testing.T) {
	r := &Registry{}
	c1 := NewCollector(1, []string{"a"}, 0)
	c2 := NewCollector(1, []string{"a"}, 0)
	c3 := NewCollector(1, []string{"a"}, 0)
	l1, u1 := r.Register("fft2d/8x8", c1)
	l2, u2 := r.Register("fft2d/8x8", c2)
	l3, u3 := r.Register("fft2d/8x8", c3)
	if l1 != "fft2d/8x8" || l2 != "fft2d/8x8#2" || l3 != "fft2d/8x8#3" {
		t.Fatalf("labels = %q %q %q", l1, l2, l3)
	}
	if got := r.Labels(); len(got) != 3 {
		t.Fatalf("Labels = %v", got)
	}
	u2()
	// The freed "#2" slot is reusable.
	l4, u4 := r.Register("fft2d/8x8", NewCollector(1, []string{"a"}, 0))
	if l4 != "fft2d/8x8#2" {
		t.Fatalf("reused label = %q", l4)
	}
	u1()
	u3()
	u4()
	if got := r.Labels(); len(got) != 0 {
		t.Fatalf("Labels after unregister = %v", got)
	}
	// Nil collectors register as a no-op.
	l5, u5 := r.Register("x", nil)
	if l5 != "x" {
		t.Fatalf("nil register label = %q", l5)
	}
	u5()
}

func TestRegistryWritePrometheusValidates(t *testing.T) {
	r := &Registry{}
	c := NewCollector(2, []string{"rows", "cols"}, 20)
	c.Shard(0).Add(0, Load, 4096, time.Microsecond)
	c.Shard(1).Add(1, Store, 4096, time.Microsecond)
	c.Shard(0).Add(0, Compute, 0, time.Microsecond)
	c.Shard(1).AddBarrier(3 * time.Microsecond)
	c.RunDone(12, 100*time.Microsecond)
	// An awkward label that needs escaping, plus an empty collector that
	// must emit zeros rather than NaN.
	_, u1 := r.Register(`plan"with\escapes`, c)
	defer u1()
	_, u2 := r.Register("empty", NewCollector(1, []string{"only"}, 0))
	defer u2()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exporter output rejected: %v\n%s", err, out)
	}
	byName := map[string]int{}
	var sawEscaped, sawWait bool
	for _, s := range samples {
		byName[s.Name]++
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Fatalf("non-finite sample %s = %v", s.Series(), s.Value)
		}
		if s.Labels["plan"] == `plan"with\escapes` {
			sawEscaped = true
			if s.Name == "fft_plan_barrier_wait_seconds_total" {
				sawWait = true
				if want := 3e-6; math.Abs(s.Value-want) > 1e-15 {
					t.Fatalf("barrier wait = %v, want %v", s.Value, want)
				}
			}
		}
	}
	if !sawEscaped || !sawWait {
		t.Fatalf("escaped plan label not round-tripped (escaped=%v wait=%v)", sawEscaped, sawWait)
	}
	for _, fam := range []string{
		"fft_plan_runs_total",
		"fft_plan_barrier_wait_seconds_total", "fft_plan_roofline_gbps",
		"fft_stage_bytes_total", "fft_stage_seconds_total",
		"fft_stage_bandwidth_gbps", "fft_stage_frac_peak",
	} {
		if byName[fam] == 0 {
			t.Fatalf("family %s missing from exposition:\n%s", fam, out)
		}
	}
}
