package repro

// Zero-allocation steady state: once a plan has executed one warm-up
// transform (growing its executor arenas and building lazy twiddle tables),
// every subsequent Transform on the reused plan must perform zero heap
// allocations and spawn zero goroutines — the plan's persistent executor
// wakes its parked workers, replays the compiled schedule, and draws all
// scratch from the per-worker arenas.

import (
	"runtime"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/kernels"
)

// assertZeroAllocs runs f once to warm the plan, then asserts the steady
// state allocates nothing and leaves the goroutine count unchanged (no
// worker spawned per run).
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race (instrumentation allocates; sync.Pool drops items at random)")
	}
	f() // warm-up: lazy twiddles, arena growth, pool fills
	before := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
		t.Errorf("%s: %v allocs per steady-state run, want 0", name, allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%s: goroutine count grew %d → %d across steady-state runs", name, before, after)
	}
}

func TestSteadyStateZeroAllocs1DBatch(t *testing.T) {
	const n, count = 256, 8
	p := fft1d.NewPlan(n)
	ar := kernels.NewArena(0, 0)
	x := make([]complex128, count*n)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	assertZeroAllocs(t, "fft1d.BatchArena", func() {
		p.BatchArena(x, count, fft1d.Forward, ar)
	})
}

func TestSteadyStateZeroAllocs1DLarge(t *testing.T) {
	// Past L2 the public FFT1D still draws its one n-element scratch from
	// the pooled arena: nothing is allocated per transform.
	const n = 1 << 17
	p, err := NewFFT1D(n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%23), -float64(i%7))
	}
	assertZeroAllocs(t, "FFT1D.Forward", func() {
		if err := p.Forward(dst, src); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocs2D(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		p, err := NewFFT2D(64, 64, WithWorkers(2, 2), WithBufferElems(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]complex128, p.Len())
		dst := make([]complex128, p.Len())
		for i := range src {
			src[i] = complex(float64(i%31), float64(i%11))
		}
		assertZeroAllocs(t, "FFT2D.Forward", func() {
			if err := p.Forward(dst, src); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func TestSteadyStateZeroAllocsReal1D(t *testing.T) {
	const n, count = 512, 4
	p, err := NewRealFFT1D(n, WithWorkers(2, 2), WithBufferElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := make([]float64, count*n)
	for i := range src {
		src[i] = float64(i%19) - 9
	}
	spec := make([]complex128, count*p.SpectrumLen())
	assertZeroAllocs(t, "RealFFT1D.ForwardBatch", func() {
		if err := p.ForwardBatch(spec, src, count); err != nil {
			t.Fatal(err)
		}
	})
	back := make([]float64, count*n)
	assertZeroAllocs(t, "RealFFT1D.InverseBatch", func() {
		if err := p.InverseBatch(back, spec, count); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocsReal2D(t *testing.T) {
	p, err := NewRealFFT2D(64, 64, WithWorkers(2, 2), WithBufferElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := make([]float64, p.RealLen())
	for i := range src {
		src[i] = float64(i%31) - 15
	}
	spec := make([]complex128, p.SpectrumLen())
	assertZeroAllocs(t, "RealFFT2D.Forward", func() {
		if err := p.Forward(spec, src); err != nil {
			t.Fatal(err)
		}
	})
	back := make([]float64, p.RealLen())
	assertZeroAllocs(t, "RealFFT2D.Inverse", func() {
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocsReal3D(t *testing.T) {
	p, err := NewRealFFT3D(16, 16, 32, WithWorkers(2, 2), WithBufferElems(1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := make([]float64, p.RealLen())
	for i := range src {
		src[i] = float64(i%29) - 14
	}
	spec := make([]complex128, p.SpectrumLen())
	assertZeroAllocs(t, "RealFFT3D.Forward", func() {
		if err := p.Forward(spec, src); err != nil {
			t.Fatal(err)
		}
	})
	back := make([]float64, p.RealLen())
	assertZeroAllocs(t, "RealFFT3D.Inverse", func() {
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocs3D(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		p, err := NewFFT3D(16, 16, 32, WithWorkers(2, 2), WithBufferElems(1<<9))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]complex128, p.Len())
		dst := make([]complex128, p.Len())
		for i := range src {
			src[i] = complex(float64(i%29), -float64(i%13))
		}
		assertZeroAllocs(t, "FFT3D.Forward", func() {
			if err := p.Forward(dst, src); err != nil {
				t.Fatal(err)
			}
		})
	})
}
