package repro

// Close lifecycle: Close must be idempotent (double Close, sequential or
// concurrent, is a no-op) and safe to race with an in-flight transform —
// the racing Close waits for the transform to finish, later transforms
// return ErrClosed instead of panicking, and the worker team is released
// exactly once (goroutine count returns to its pre-plan baseline). Every
// handle kind holds the contract, whether it owns its plan or came from a
// SharedPlans pool; FFT1D has no workers, but holds it at every size.

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// transformer is a handle's Close beside one out-of-place forward
// transform over fresh arrays.
type transformer struct {
	Close   func()
	forward func() error
}

// complexHandle and realHandle are the forward surfaces of the complex and
// real handle kinds.
type complexHandle interface {
	Close()
	Len() int
	Forward(dst, src []complex128) error
}

type realHandle interface {
	Close()
	SpectrumLen() int
	Forward(dst []complex128, src []float64) error
}

func wrapComplex(p complexHandle, err error) (transformer, error) {
	if err != nil {
		return transformer{}, err
	}
	return transformer{p.Close, func() error {
		return p.Forward(make([]complex128, p.Len()), make([]complex128, p.Len()))
	}}, nil
}

// wrapReal wraps a real handle of n real elements.
func wrapReal(n int) func(p realHandle, err error) (transformer, error) {
	return func(p realHandle, err error) (transformer, error) {
		if err != nil {
			return transformer{}, err
		}
		return transformer{p.Close, func() error {
			return p.Forward(make([]complex128, p.SpectrumLen()), make([]float64, n))
		}}, nil
	}
}

var (
	opts2D = []Option{WithWorkers(2, 2), WithBufferElems(1 << 10)}
	opts3D = []Option{WithWorkers(2, 2), WithBufferElems(1 << 9)}
)

// handleKinds builds one small handle of every kind — the 1D plan again at
// a size past L2 (> 2¹⁶) — from the pool s, or owning its plan when s is
// nil.
var handleKinds = map[string]func(s *SharedPlans) (transformer, error){
	"FFT1D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapComplex(s.FFT1D(1 << 10))
		}
		return wrapComplex(NewFFT1D(1 << 10))
	},
	"FFT1D/large": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapComplex(s.FFT1D(1 << 17))
		}
		return wrapComplex(NewFFT1D(1 << 17))
	},
	"FFT2D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapComplex(s.FFT2D(64, 64, opts2D...))
		}
		return wrapComplex(NewFFT2D(64, 64, opts2D...))
	},
	"FFT3D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapComplex(s.FFT3D(16, 16, 32, opts3D...))
		}
		return wrapComplex(NewFFT3D(16, 16, 32, opts3D...))
	},
	"RealFFT1D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapReal(1 << 10)(s.RealFFT1D(1<<10, opts2D...))
		}
		return wrapReal(1 << 10)(NewRealFFT1D(1<<10, opts2D...))
	},
	"RealFFT2D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapReal(64 * 64)(s.RealFFT2D(64, 64, opts2D...))
		}
		return wrapReal(64 * 64)(NewRealFFT2D(64, 64, opts2D...))
	},
	"RealFFT3D": func(s *SharedPlans) (transformer, error) {
		if s != nil {
			return wrapReal(16 * 16 * 32)(s.RealFFT3D(16, 16, 32, opts3D...))
		}
		return wrapReal(16 * 16 * 32)(NewRealFFT3D(16, 16, 32, opts3D...))
	},
}

// newPlans builds every handle kind once owning its plan and once from a
// SharedPlans pool of its own. Closing a shared handle here also closes its
// pool, so the plan is evicted and torn down under the closed handle, and
// the goroutine count comes back to its baseline either way.
func newPlans(t *testing.T) map[string]func() transformer {
	t.Helper()
	plans := map[string]func() transformer{}
	for name, build := range handleKinds {
		plans[name] = func() transformer {
			p, err := build(nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		plans["Shared"+name] = func() transformer {
			s := NewSharedPlans(1)
			p, err := build(s)
			if err != nil {
				t.Fatal(err)
			}
			return transformer{func() { p.Close(); s.Close() }, p.forward}
		}
	}
	return plans
}

// waitGoroutines polls until the goroutine count drops to at most want
// (worker teardown is asynchronous after Close returns).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, want ≤ %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCloseIdempotent(t *testing.T) {
	for name, build := range newPlans(t) {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			p := build()
			if err := p.forward(); err != nil {
				t.Fatal(err)
			}
			p.Close()
			p.Close() // second Close must be a no-op, not a panic
			p.Close()
			waitGoroutines(t, baseline)
		})
	}
}

func TestCloseConcurrent(t *testing.T) {
	for name, build := range newPlans(t) {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			p := build()
			if err := p.forward(); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p.Close()
				}()
			}
			wg.Wait()
			waitGoroutines(t, baseline)
		})
	}
}

func TestCloseWhileRunning(t *testing.T) {
	for name, build := range newPlans(t) {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			p := build()
			// Hammer transforms from several goroutines while Close lands
			// mid-flight: every call must either succeed or return a
			// "plan closed" error — never panic, never deadlock.
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 50; i++ {
						if err := p.forward(); err != nil {
							if !strings.Contains(err.Error(), "closed") {
								t.Errorf("unexpected error: %v", err)
							}
							return
						}
					}
				}()
			}
			close(start)
			time.Sleep(2 * time.Millisecond) // let some transforms run
			p.Close()
			wg.Wait()
			// After Close and drain, a fresh call must report ErrClosed.
			if err := p.forward(); !errors.Is(err, ErrClosed) {
				t.Errorf("transform after Close: got %v, want ErrClosed", err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// A closed shared handle refuses transforms with ErrClosed while its plan
// stays in the pool for the handles still open on it.
func TestClosedSharedHandleRefuses(t *testing.T) {
	s := NewSharedPlans(len(handleKinds))
	defer s.Close()
	for name, build := range handleKinds {
		closed, err := build(s)
		if err != nil {
			t.Fatal(err)
		}
		open, err := build(s)
		if err != nil {
			t.Fatal(err)
		}
		closed.Close()
		if err := closed.forward(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: transform on a closed shared handle returned %v, want ErrClosed", name, err)
		}
		if err := open.forward(); err != nil {
			t.Errorf("%s: the open handle on the same plan: %v", name, err)
		}
		open.Close()
	}
}
