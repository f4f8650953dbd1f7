package fft1d

import (
	"sync"
	"testing"
)

// TestPlanCacheBounded exercises the regression the LRU rewire fixes: the
// old sync.Map cache retained a plan (and its twiddle tables) for every size
// ever requested. The cache must stay within its capacity no matter how many
// distinct sizes pass through, while still deduplicating repeated requests.
func TestPlanCacheBounded(t *testing.T) {
	before := planCache.Stats()

	// Repeated requests for one size share one plan.
	a := NewPlan(4096)
	b := NewPlan(4096)
	if a != b {
		t.Fatal("NewPlan(4096) twice returned distinct plans")
	}
	if s := planCache.Stats(); s.Hits <= before.Hits {
		t.Errorf("repeated NewPlan did not register a cache hit: %+v", s)
	}

	// Sweep far more distinct sizes than the capacity, concurrently (the
	// public constructors are documented concurrency-safe). Composite sizes
	// plant recursive sub-plans through the same cache, which is the
	// worst case for growth.
	const sweep = 3 * planCacheCapacity
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sweep; i++ {
				n := 9 + (i+g*sweep/4)%sweep
				p := NewPlan(n)
				if p.N() != n {
					t.Errorf("NewPlan(%d) returned plan of size %d", n, p.N())
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := planCache.Stats()
	if s.Len > s.Capacity {
		t.Errorf("plan cache holds %d entries, capacity %d", s.Len, s.Capacity)
	}
	if s.Evictions == before.Evictions {
		t.Errorf("sweeping %d sizes evicted nothing (len %d, cap %d)", sweep, s.Len, s.Capacity)
	}

	// An evicted plan must remain usable by holders: plans are immutable
	// data, eviction only drops the cache's pointer.
	x := randVec(1, 4096)
	a.InPlace(x, Forward)
	a.InPlace(x, Inverse)
}
