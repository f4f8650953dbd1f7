package repro

import (
	"testing"
)

// TestSharedPlans covers the shared-pool facade: handle deduplication,
// eviction with deferred teardown, and idempotent handle Close.
func TestSharedPlans(t *testing.T) {
	pool := NewSharedPlans(2)
	defer pool.Close()

	opts := []Option{withLanes(1), WithBufferElems(1 << 10)}

	a, err := pool.FFT2D(32, 32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.FFT2D(32, 32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.p != b.p {
		t.Fatal("same-shape shared handles got distinct plans")
	}
	if s := pool.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("expected 1 hit / 1 miss, got %+v", s)
	}

	// Overflow the pool while `a` and `b` still pin the 32×32 plan: the
	// eviction must defer teardown, so the handles keep working.
	if _, err := pool.FFT1D(4096, opts...); err != nil {
		t.Fatal(err)
	}
	c, err := pool.FFT3D(8, 8, 8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Evictions == 0 {
		t.Fatalf("expected an eviction at capacity 2, got %+v", s)
	}
	src := make([]complex128, a.Len())
	dst := make([]complex128, a.Len())
	src[1] = 1
	if err := a.Forward(dst, src); err != nil {
		t.Fatalf("evicted-but-pinned shared plan failed: %v", err)
	}

	// Close is idempotent on shared handles; the second Close must not
	// double-release the cache pin (which would tear the plan down under b).
	a.Close()
	a.Close()
	if err := b.Forward(dst, src); err != nil {
		t.Fatalf("plan torn down while still pinned by another handle: %v", err)
	}
	b.Close()
	c.Close()
}

// TestSharedPlansReal covers the real-input shared constructors: same-shape
// real handles share one plan, real and complex plans of the same dims
// never collide, and shared real handles transform correctly.
func TestSharedPlansReal(t *testing.T) {
	pool := NewSharedPlans(4)
	defer pool.Close()
	opts := []Option{withLanes(1), WithBufferElems(1 << 10)}

	a, err := pool.RealFFT2D(16, 32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.RealFFT2D(16, 32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.p != b.p {
		t.Fatal("same-shape shared real handles got distinct plans")
	}
	// A complex plan of the same dims is a different cache entry.
	if _, err := pool.FFT2D(16, 32, opts...); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Misses != 2 {
		t.Fatalf("real and complex 16×32 should be 2 misses, got %+v", s)
	}

	src := make([]float64, a.RealLen())
	for i := range src {
		src[i] = float64(i%13) - 6
	}
	spec := make([]complex128, a.SpectrumLen())
	back := make([]float64, a.RealLen())
	if err := a.Forward(spec, src); err != nil {
		t.Fatal(err)
	}
	if err := b.Inverse(back, spec); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if d := back[i] - src[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("shared real round trip off at %d", i)
		}
	}
	a.Close()
	b.Close()

	if _, err := pool.RealFFT1D(64, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RealFFT3D(4, 4, 8, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RealFFT1D(63, opts...); err == nil {
		t.Fatal("shared real 1D accepted odd n")
	}
}
