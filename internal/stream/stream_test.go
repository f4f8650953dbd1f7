package stream

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/layout"
	"repro/internal/machine"
)

func TestRunAllKernels(t *testing.T) {
	res := Run(Config{Elems: 1 << 16, Trials: 2, Goroutines: 3})
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	order := []Kernel{Copy, Scale, Add, Triad}
	for i, r := range res {
		if r.Kernel != order[i] {
			t.Errorf("result %d kernel %v, want %v", i, r.Kernel, order[i])
		}
		if r.BestGBs <= 0 || r.AvgGBs <= 0 || r.WorstGBs <= 0 {
			t.Errorf("%v: non-positive bandwidth", r.Kernel)
		}
		if r.BestGBs < r.AvgGBs-1e-9 || r.AvgGBs < r.WorstGBs-1e-9 {
			t.Errorf("%v: best/avg/worst out of order: %v %v %v",
				r.Kernel, r.BestGBs, r.AvgGBs, r.WorstGBs)
		}
		if !r.CheckedOK {
			t.Errorf("%v: verification failed", r.Kernel)
		}
		if r.Elems != 1<<16 || r.Trials != 2 || r.Goroutines != 3 {
			t.Errorf("%v: config not recorded", r.Kernel)
		}
	}
}

func TestKernelMetadata(t *testing.T) {
	if Copy.String() != "copy" || Triad.String() != "triad" {
		t.Fatal("kernel names wrong")
	}
	if Copy.bytesMoved() != 16 || Scale.bytesMoved() != 16 {
		t.Fatal("copy/scale move 16 B per element")
	}
	if Add.bytesMoved() != 24 || Triad.bytesMoved() != 24 {
		t.Fatal("add/triad move 24 B per element")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Elems != 8<<20 || c.Trials != 5 || c.Goroutines != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaults = %+v", c)
	}
}

// The probe allocates two arrays a goroutine and little else, and returns a
// finite positive figure exactly where a cache-flush kernel exists. The
// collector is off while it runs: a cycle its arrays would start allocates
// the mark workers' own few hundred bytes, which are not the probe's.
func TestDRAMCopyGBs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bw := DRAMCopyGBs()
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(runtime.GOMAXPROCS(0))*8<<20+64<<10; alloc > limit {
		t.Errorf("DRAMCopyGBs allocated %d B, want ≤ 8 MiB a goroutine", alloc)
	}
	if !layout.EvictAvailable() {
		if bw != 0 {
			t.Fatalf("DRAMCopyGBs = %v without a flush kernel, want 0", bw)
		}
		return
	}
	if bw <= 0 || math.IsInf(bw, 0) || math.IsNaN(bw) {
		t.Fatalf("DRAMCopyGBs = %v, want finite and positive", bw)
	}
	t.Logf("DRAMCopyGBs = %.2f GB/s", bw)
}

// A copy that corrupts one element, or copies nothing, reads 0, not a
// bandwidth.
func TestCopyProbeCatchesCorruptCopy(t *testing.T) {
	if !layout.EvictAvailable() {
		t.Skip("no cache-flush kernel: the probe returns 0 before copying")
	}
	corrupt := func(dst, src []float64) {
		copy(dst, src)
		dst[len(dst)/3] = -1
	}
	for _, g := range []int{1, 2} {
		if bw := copyProbe(g, layout.Evict, corrupt); bw != 0 {
			t.Errorf("%d goroutines: corrupted copy read %v GB/s, want 0", g, bw)
		}
		if bw := copyProbe(g, layout.Evict, func(dst, src []float64) {}); bw != 0 {
			t.Errorf("%d goroutines: a copy that copies nothing read %v GB/s, want 0", g, bw)
		}
	}
}

// Copying over every core reads at least one core's rate: the all-core
// roofline never undercuts what one lane alone can draw. The two probes
// alternate over five rounds and the best of each is compared, as in
// TestRunAllCoreReadsAtLeastOneCore: a round in which another package's
// test holds the second core reads the split copy at one core's rate.
func TestAllCoreCopyReadsAtLeastOneCore(t *testing.T) {
	if !layout.EvictAvailable() {
		t.Skip("no cache-flush kernel")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes the copy compute-bound")
	}
	copyFloats := func(dst, src []float64) { copy(dst, src) }
	var one, all float64
	for range 5 {
		one = max(one, copyProbe(1, layout.Evict, copyFloats))
		all = max(all, DRAMCopyGBs())
	}
	t.Logf("GOMAXPROCS %d: all-core %.2f GB/s, one goroutine %.2f GB/s", runtime.GOMAXPROCS(0), all, one)
	if all < 0.9*one {
		t.Fatalf("all-core copy %.2f GB/s < 0.9 × one goroutine's %.2f GB/s", all, one)
	}
}

// STREAM over every core reads at least one core's rate: split over
// GOMAXPROCS goroutines, the copy is never below 0.9× the same arrays copied
// on one. The two runs alternate over five rounds of five trials and the
// best of each is compared: the other packages' tests share the cores, and a
// round in which one of them holds the second core reads the split copy at
// one core's rate or below.
func TestRunAllCoreReadsAtLeastOneCore(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes the copy compute-bound")
	}
	var one, all float64
	for range 5 {
		one = max(one, Run(Config{Elems: 1 << 21, Trials: 5, Goroutines: 1})[0].BestGBs)
		r := Run(Config{Elems: 1 << 21, Trials: 5})[0]
		if r.Goroutines != runtime.GOMAXPROCS(0) {
			t.Fatalf("the default run used %d goroutines, want GOMAXPROCS = %d", r.Goroutines, runtime.GOMAXPROCS(0))
		}
		all = max(all, r.BestGBs)
	}
	t.Logf("GOMAXPROCS %d: all-core copy %.2f GB/s, one goroutine %.2f GB/s", runtime.GOMAXPROCS(0), all, one)
	if all < 0.9*one {
		t.Fatalf("all-core copy %.2f GB/s < 0.9 × one goroutine's %.2f GB/s", all, one)
	}
}

// Where the last-level cache holds the probe's 8 MiB four times over, the
// same arrays copied without the eviction read cache; the evicted copy must
// read well below that, or the flush did not reach memory. On the 300 MiB
// L3 host the two read ≈ 10 and ≈ 22 GB/s; without a working flush they
// read alike, so a margin of 4/5 separates the cases on a noisy host. The
// two probes alternate over five rounds and the best of each is compared,
// so load from other processes lands on both alike.
func TestEvictionReadsBelowCachedCopy(t *testing.T) {
	if !layout.EvictAvailable() {
		t.Skip("no cache-flush kernel")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes the copy compute-bound")
	}
	if llc := machine.HostLLCBytes(); llc < 4*16*probeElems {
		t.Skipf("LLC %d B holds the probe's arrays fewer than 4 times", llc)
	}
	copyFloats := func(dst, src []float64) { copy(dst, src) }
	var cached, evicted float64
	for range 5 {
		cached = max(cached, copyProbe(1, func([]float64) {}, copyFloats))
		evicted = max(evicted, copyProbe(1, layout.Evict, copyFloats))
	}
	t.Logf("evicted %.2f GB/s, cached %.2f GB/s", evicted, cached)
	if evicted >= 0.8*cached {
		t.Fatalf("evicted copy %.2f GB/s ≥ 4/5 of the cached copy's %.2f GB/s: the flush did not evict", evicted, cached)
	}
}

func BenchmarkStreamCopy(b *testing.B) {
	const n = 1 << 22
	src := make([]float64, n)
	dst := make([]float64, n)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkStreamTriad(b *testing.B) {
	const n = 1 << 22
	a := make([]float64, n)
	bb := make([]float64, n)
	c := make([]float64, n)
	b.SetBytes(n * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range a {
			a[j] = bb[j] + 3*c[j]
		}
	}
}
