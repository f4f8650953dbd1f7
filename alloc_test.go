package repro

// Zero-allocation steady state: once a plan has executed one warm-up
// transform (growing the pooled lanes' arenas, filling the engine's work
// arrays and building lazy twiddle tables), every subsequent Transform on
// the reused plan must perform zero heap allocations and spawn zero
// goroutines — on one lane and on two: each run leases a pooled team, wakes
// its parked lanes and draws all scratch from the per-lane buffers and
// arenas and its work array from the pool; InPlace leases its temporary
// there too.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/kernels"
)

// assertZeroAllocs runs f once to warm the plan, then asserts the steady
// state allocates nothing and leaves the goroutine count unchanged (no
// lane spawned per run).
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

// allocLanes are the lane counts every steady state is held at.
var allocLanes = []int{1, 2}

// withLanes plans on l lanes (the public API sizes lanes by GOMAXPROCS).
func withLanes(l int) Option {
	return func(c *core.Config) error { c.Lanes = l; return nil }
}

func TestSteadyStateZeroAllocs2D(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		for _, l := range allocLanes {
			p, err := NewFFT2D(64, 64, withLanes(l), WithBufferElems(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			src := make([]complex128, p.Len())
			dst := make([]complex128, p.Len())
			for i := range src {
				src[i] = complex(float64(i%31), float64(i%11))
			}
			assertZeroAllocs(t, fmt.Sprintf("FFT2D.Forward on %d lanes", l), func() {
				if err := p.Forward(dst, src); err != nil {
					t.Fatal(err)
				}
			})
			p.Close()
		}
	})
	t.Run("inplace", func(t *testing.T) {
		for _, l := range allocLanes {
			p, err := NewFFT2D(64, 64, withLanes(l), WithBufferElems(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			assertInPlaceZeroAllocs(t, fmt.Sprintf("FFT2D.InPlace on %d lanes", l), p)
			p.Close()
		}
	})
}

// assertInPlaceZeroAllocs holds a complex handle's InPlace, whose temporary
// comes from the engine's pool, to the allocation-free steady state.
func assertInPlaceZeroAllocs(t *testing.T, name string, p interface {
	Len() int
	InPlace(x []complex128) error
}) {
	t.Helper()
	x := make([]complex128, p.Len())
	for i := range x {
		x[i] = complex(float64(i%31), float64(i%11))
	}
	assertZeroAllocs(t, name, func() {
		if err := p.InPlace(x); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocsReal1D(t *testing.T) {
	const n, count = 512, 4
	for _, l := range allocLanes {
		p, err := NewRealFFT1D(n, withLanes(l), WithBufferElems(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, count*n)
		for i := range src {
			src[i] = float64(i%19) - 9
		}
		spec := make([]complex128, count*p.SpectrumLen())
		assertZeroAllocs(t, fmt.Sprintf("RealFFT1D.ForwardBatch on %d lanes", l), func() {
			if err := p.ForwardBatch(spec, src, count); err != nil {
				t.Fatal(err)
			}
		})
		back := make([]float64, count*n)
		assertZeroAllocs(t, fmt.Sprintf("RealFFT1D.InverseBatch on %d lanes", l), func() {
			if err := p.InverseBatch(back, spec, count); err != nil {
				t.Fatal(err)
			}
		})
		p.Close()
	}
}

func TestSteadyStateZeroAllocsReal2D(t *testing.T) {
	for _, l := range allocLanes {
		p, err := NewRealFFT2D(64, 64, withLanes(l), WithBufferElems(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		assertRealZeroAllocs(t, fmt.Sprintf("RealFFT2D on %d lanes", l), p)
		p.Close()
	}
}

func TestSteadyStateZeroAllocsReal3D(t *testing.T) {
	for _, l := range allocLanes {
		p, err := NewRealFFT3D(16, 16, 32, withLanes(l), WithBufferElems(1<<9))
		if err != nil {
			t.Fatal(err)
		}
		assertRealZeroAllocs(t, fmt.Sprintf("RealFFT3D on %d lanes", l), p)
		p.Close()
	}
}

// assertRealZeroAllocs holds a real 2D or 3D handle's Forward and Inverse
// to the allocation-free steady state.
func assertRealZeroAllocs(t *testing.T, name string, p interface {
	RealLen() int
	SpectrumLen() int
	Forward(spec []complex128, src []float64) error
	Inverse(dst []float64, spec []complex128) error
}) {
	t.Helper()
	src := make([]float64, p.RealLen())
	for i := range src {
		src[i] = float64(i%29) - 14
	}
	spec := make([]complex128, p.SpectrumLen())
	assertZeroAllocs(t, name+" Forward", func() {
		if err := p.Forward(spec, src); err != nil {
			t.Fatal(err)
		}
	})
	back := make([]float64, p.RealLen())
	assertZeroAllocs(t, name+" Inverse", func() {
		if err := p.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSteadyStateZeroAllocs3D(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		for _, l := range allocLanes {
			p, err := NewFFT3D(16, 16, 32, withLanes(l), WithBufferElems(1<<9))
			if err != nil {
				t.Fatal(err)
			}
			src := make([]complex128, p.Len())
			dst := make([]complex128, p.Len())
			for i := range src {
				src[i] = complex(float64(i%29), -float64(i%13))
			}
			assertZeroAllocs(t, fmt.Sprintf("FFT3D.Forward on %d lanes", l), func() {
				if err := p.Forward(dst, src); err != nil {
					t.Fatal(err)
				}
			})
			p.Close()
		}
	})
	t.Run("inplace", func(t *testing.T) {
		for _, l := range allocLanes {
			p, err := NewFFT3D(16, 16, 32, withLanes(l), WithBufferElems(1<<9))
			if err != nil {
				t.Fatal(err)
			}
			assertInPlaceZeroAllocs(t, fmt.Sprintf("FFT3D.InPlace on %d lanes", l), p)
			p.Close()
		}
	})
}
