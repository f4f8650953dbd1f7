package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOrCreateCachesAndBounds(t *testing.T) {
	var built, closed atomic.Int64
	c := New[int, int](3, func(k, v int) { closed.Add(1) })
	for round := 0; round < 2; round++ {
		for k := 0; k < 3; k++ {
			v, release, err := c.GetOrCreate(k, func() (int, error) {
				built.Add(1)
				return k * 10, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v != k*10 {
				t.Fatalf("key %d: got %d", k, v)
			}
			release()
		}
	}
	if built.Load() != 3 {
		t.Fatalf("built %d plans, want 3 (second round must hit)", built.Load())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats %+v, want 3 hits / 3 misses", st)
	}

	// A fourth key evicts the least recently used (key 0) and closes it
	// immediately: no references are outstanding.
	if _, release, err := c.GetOrCreate(3, func() (int, error) { return 30, nil }); err != nil {
		t.Fatal(err)
	} else {
		release()
	}
	if c.Len() != 3 {
		t.Fatalf("len %d after overflow, want 3", c.Len())
	}
	if closed.Load() != 1 {
		t.Fatalf("closed %d, want 1", closed.Load())
	}
}

func TestEvictionDefersCloseUntilRefsDrain(t *testing.T) {
	var closed atomic.Int64
	c := New[int, string](1, func(k int, v string) { closed.Add(1) })
	v, release, err := c.GetOrCreate(1, func() (string, error) { return "one", nil })
	if err != nil || v != "one" {
		t.Fatalf("got %q, %v", v, err)
	}
	// Evict key 1 while the caller still holds a reference.
	_, release2, err := c.GetOrCreate(2, func() (string, error) { return "two", nil })
	if err != nil {
		t.Fatal(err)
	}
	release2()
	if closed.Load() != 0 {
		t.Fatal("evicted entry closed while a reference was outstanding")
	}
	release()
	if closed.Load() != 1 {
		t.Fatalf("closed %d after last release, want 1", closed.Load())
	}
}

func TestBuildErrorIsNotCached(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	c := New[int, int](4, nil)
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCreate(7, func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed build cached: %d calls, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("len %d, want 0", c.Len())
	}
}

func TestConcurrentSameKeyBuildsOnce(t *testing.T) {
	var built atomic.Int64
	c := New[int, int](2, nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, release, err := c.GetOrCreate(5, func() (int, error) {
				built.Add(1)
				return 55, nil
			})
			if err != nil || v != 55 {
				t.Errorf("got %d, %v", v, err)
				return
			}
			release()
		}()
	}
	wg.Wait()
	if built.Load() != 1 {
		t.Fatalf("built %d times, want 1", built.Load())
	}
}

func TestReentrantBuild(t *testing.T) {
	// A builder that recursively builds its sub-key through the same cache,
	// the way the fft1d planner builds a Bluestein stage's sub-plan.
	c := New[int, int](8, nil)
	var get func(n int) int
	get = func(n int) int {
		v, release, err := c.GetOrCreate(n, func() (int, error) {
			if n <= 1 {
				return 1, nil
			}
			return get(n-1) + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return v
	}
	if v := get(6); v != 6 {
		t.Fatalf("got %d, want 6", v)
	}
}

func TestPurgeClosesEverything(t *testing.T) {
	var closed atomic.Int64
	c := New[int, int](8, func(k, v int) { closed.Add(1) })
	var releases []func()
	for k := 0; k < 5; k++ {
		_, release, err := c.GetOrCreate(k, func() (int, error) { return k, nil })
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 {
			release() // even keys: no outstanding refs at purge time
		} else {
			releases = append(releases, release)
		}
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len %d after purge, want 0", c.Len())
	}
	if closed.Load() != 3 {
		t.Fatalf("closed %d at purge, want 3 (unreferenced entries)", closed.Load())
	}
	for _, r := range releases {
		r()
	}
	if closed.Load() != 5 {
		t.Fatalf("closed %d after drains, want 5", closed.Load())
	}
}

func TestConcurrentChurn(t *testing.T) {
	var live atomic.Int64
	c := New[int, *int](4, func(k int, v *int) { live.Add(-1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 16
				v, release, err := c.GetOrCreate(k, func() (*int, error) {
					live.Add(1)
					x := k
					return &x, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if *v != k {
					t.Errorf("key %d: got %d", k, *v)
				}
				release()
			}
		}()
	}
	wg.Wait()
	c.Purge()
	if n := live.Load(); n != 0 {
		t.Fatalf("%d values leaked (built but never closed)", n)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("churn produced no evictions; capacity not enforced")
	}
}

func TestStatsString(t *testing.T) {
	c := New[string, int](2, nil)
	_, release, _ := c.GetOrCreate("a", func() (int, error) { return 1, nil })
	release()
	st := c.Stats()
	if st.Capacity != 2 || st.Len != 1 || st.Misses != 1 {
		t.Fatalf("unexpected stats %s", fmt.Sprintf("%+v", st))
	}
}

// A hit hands out the entry's one release func instead of building a closure
// per acquisition, so it allocates nothing — with the contract unchanged:
// every acquisition releases exactly once, and an evicted entry closes only
// when the last of them has.
func TestHitAllocatesNothing(t *testing.T) {
	var closed atomic.Int64
	c := New[int, string](1, func(int, string) { closed.Add(1) })
	build := func() (string, error) { return "one", nil }
	_, release, err := c.GetOrCreate(1, build)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, rel, _ := c.GetOrCreate(1, build)
		rel()
	}); allocs != 0 {
		t.Errorf("%v allocs per hit, want 0", allocs)
	}

	// Three outstanding acquisitions of the evicted entry: two more hits …
	_, relA, _ := c.GetOrCreate(1, build)
	_, relB, _ := c.GetOrCreate(1, build)
	// … then key 2 evicts key 1 while all three are held.
	_, release2, err := c.GetOrCreate(2, func() (string, error) { return "two", nil })
	if err != nil {
		t.Fatal(err)
	}
	release2()
	for i, rel := range []func(){release, relA, relB} {
		if closed.Load() != 0 {
			t.Fatalf("evicted entry closed with %d of 3 references outstanding", 3-i)
		}
		rel()
	}
	if closed.Load() != 1 {
		t.Fatalf("closed %d after the last release, want 1", closed.Load())
	}
}
