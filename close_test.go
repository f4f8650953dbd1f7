package repro

// Close lifecycle: Close must be idempotent (double Close, sequential or
// concurrent, is a no-op) and safe to race with an in-flight transform —
// the racing Close waits for the transform to finish, later transforms
// return an error instead of panicking, and the worker team is released
// exactly once (goroutine count returns to its pre-plan baseline). FFT1D
// has no workers, but holds the same contract at every size: a transform
// after Close returns ErrClosed.

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// closer is the lifecycle surface shared by FFT1D/FFT2D/FFT3D.
type closer interface {
	Close()
}

// transformer runs one out-of-place forward transform.
type transformer interface {
	closer
	forward() error
	length() int
}

type plan1D struct{ p *FFT1D }

func (w plan1D) Close() { w.p.Close() }
func (w plan1D) forward() error {
	dst := make([]complex128, w.p.Len())
	src := make([]complex128, w.p.Len())
	return w.p.Forward(dst, src)
}
func (w plan1D) length() int { return w.p.Len() }

type plan2D struct{ p *FFT2D }

func (w plan2D) Close() { w.p.Close() }
func (w plan2D) forward() error {
	dst := make([]complex128, w.p.Len())
	src := make([]complex128, w.p.Len())
	return w.p.Forward(dst, src)
}
func (w plan2D) length() int { return w.p.Len() }

type plan3D struct{ p *FFT3D }

func (w plan3D) Close() { w.p.Close() }
func (w plan3D) forward() error {
	dst := make([]complex128, w.p.Len())
	src := make([]complex128, w.p.Len())
	return w.p.Forward(dst, src)
}
func (w plan3D) length() int { return w.p.Len() }

// newPlans builds one small plan per rank — 2D and 3D with persistent
// executors — and the 1D plan again at a size past L2 (> 2¹⁶).
func newPlans(t *testing.T) map[string]func() transformer {
	t.Helper()
	fft1D := func(n int) func() transformer {
		return func() transformer {
			p, err := NewFFT1D(n)
			if err != nil {
				t.Fatal(err)
			}
			return plan1D{p}
		}
	}
	return map[string]func() transformer{
		"FFT1D":       fft1D(1 << 10),
		"FFT1D/large": fft1D(1 << 17),
		"FFT2D": func() transformer {
			p, err := NewFFT2D(64, 64, WithWorkers(2, 2), WithBufferElems(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			return plan2D{p}
		},
		"FFT3D": func() transformer {
			p, err := NewFFT3D(16, 16, 32, WithWorkers(2, 2), WithBufferElems(1<<9))
			if err != nil {
				t.Fatal(err)
			}
			return plan3D{p}
		},
	}
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
			// After Close and drain, a fresh call must report closed.
			err := p.forward()
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("transform after Close: got %v, want plan-closed error", err)
			}
			if _, is1D := p.(plan1D); is1D && !errors.Is(err, ErrClosed) {
				t.Errorf("FFT1D transform after Close: got %v, want ErrClosed", err)
			}
			waitGoroutines(t, baseline)
		})
	}
}
