package repro

// Concurrency guarantees of the public plans: a single plan owns shared
// scratch (work arrays + the double buffer), so concurrent Transforms on
// one plan serialize on its internal lock rather than corrupting each
// other, and independent plans run fully in parallel. Run under -race by
// the ci target.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cvec"
	"repro/internal/spl"
)

func TestSharedPlanConcurrentTransforms(t *testing.T) {
	const k, n, m = 8, 8, 16
	const goroutines = 4
	inputs := make([][]complex128, goroutines)
	wants := make([][]complex128, goroutines)
	for g := range inputs {
		inputs[g] = cvec.Random(rand.New(rand.NewSource(int64(g))), k*n*m)
		wants[g] = spl.Eval(spl.DFT3D(k, n, m), inputs[g])
	}
	cp, err := NewFFT3D(k, n, m, WithBufferElems(128), withLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	rp, err := NewRealFFT3D(k, n, m, WithBufferElems(128), withLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	// A real plan transforms the real parts and returns the first m/2+1
	// bins of each row of the complex transform of the real-valued grid.
	realIn := make([][]float64, goroutines)
	realWants := make([][]complex128, goroutines)
	for g := range realIn {
		realIn[g] = make([]float64, k*n*m)
		re := make([]complex128, k*n*m)
		for i, v := range inputs[g] {
			realIn[g][i], re[i] = real(v), complex(real(v), 0)
		}
		full := spl.Eval(spl.DFT3D(k, n, m), re)
		for r := 0; r < k*n; r++ {
			realWants[g] = append(realWants[g], full[r*m:r*m+m/2+1]...)
		}
	}
	for _, c := range []struct {
		name    string
		forward func(dst []complex128, g int) error
		want    [][]complex128
	}{
		{"FFT3D", func(dst []complex128, g int) error { return cp.Forward(dst, inputs[g]) }, wants},
		{"RealFFT3D", func(dst []complex128, g int) error { return rp.Forward(dst, realIn[g]) }, realWants},
	} {
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		diffs := make([]float64, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]complex128, len(c.want[g]))
				for rep := 0; rep < 3; rep++ {
					if err := c.forward(got, g); err != nil {
						errs[g] = err
						return
					}
					if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(c.want[g])); d > diffs[g] {
						diffs[g] = d
					}
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if errs[g] != nil {
				t.Fatalf("%s goroutine %d: %v", c.name, g, errs[g])
			}
			if diffs[g] > 1e-9*float64(k*n*m) {
				t.Fatalf("%s goroutine %d: shared plan corrupted a transform (diff %g)", c.name, g, diffs[g])
			}
		}
	}
}

func TestIndependentPlansRunInParallel(t *testing.T) {
	sizes := [][3]int{{8, 8, 8}, {8, 8, 16}, {4, 16, 8}, {16, 4, 8}}
	var wg sync.WaitGroup
	failures := make([]error, len(sizes))
	diffs := make([]float64, len(sizes))
	for i, s := range sizes {
		wg.Add(1)
		go func(i int, k, n, m int) {
			defer wg.Done()
			p, err := NewFFT3D(k, n, m, WithBufferElems(128), withLanes(2))
			if err != nil {
				failures[i] = err
				return
			}
			x := cvec.Random(rand.New(rand.NewSource(int64(100+i))), k*n*m)
			want := spl.Eval(spl.DFT3D(k, n, m), x)
			got := make([]complex128, len(x))
			if err := p.Forward(got, x); err != nil {
				failures[i] = err
				return
			}
			diffs[i] = cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want))
		}(i, s[0], s[1], s[2])
	}
	wg.Wait()
	for i := range sizes {
		if failures[i] != nil {
			t.Fatalf("plan %v: %v", sizes[i], failures[i])
		}
		if lim := 1e-9 * float64(sizes[i][0]*sizes[i][1]*sizes[i][2]); diffs[i] > lim {
			t.Fatalf("plan %v: diff %g", sizes[i], diffs[i])
		}
	}
}

// TestPersistentExecutorSequentialReuse drives one plan's persistent
// executor through many back-to-back transforms with varying directions and
// inputs: the parked worker team must produce bit-identical results to a
// fresh reference on every wake, and an inverse round trip must return to
// the input. Run under -race by the ci target to verify the park/wake
// barrier protocol publishes each run's state correctly.
func TestPersistentExecutorSequentialReuse(t *testing.T) {
	const k, n, m = 8, 16, 16
	p, err := NewFFT3D(k, n, m, WithBufferElems(256), withLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, k*n*m)
	back := make([]complex128, k*n*m)
	for rep := 0; rep < 10; rep++ {
		x := cvec.Random(rand.New(rand.NewSource(int64(rep))), k*n*m)
		want := spl.Eval(spl.DFT3D(k, n, m), x)
		if err := p.Forward(got, x); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(k*n*m) {
			t.Fatalf("rep %d: reused executor diverged from reference (diff %g)", rep, d)
		}
		if err := p.Inverse(back, got); err != nil {
			t.Fatalf("rep %d inverse: %v", rep, err)
		}
		if d := cvec.MaxDiff(cvec.Vec(back), cvec.Vec(x)); d > 1e-9*float64(k*n*m) {
			t.Fatalf("rep %d: round trip diverged (diff %g)", rep, d)
		}
	}
}

// TestIndependentExecutorsRunConcurrently exercises several independent
// plans' persistent executors at the same time, each being reused across
// repetitions, so the worker teams of different plans interleave freely.
func TestIndependentExecutorsRunConcurrently(t *testing.T) {
	sizes := [][3]int{{8, 8, 16}, {4, 16, 16}, {16, 8, 8}, {8, 16, 8}}
	var wg sync.WaitGroup
	failures := make([]error, len(sizes))
	for i, s := range sizes {
		wg.Add(1)
		go func(i, k, n, m int) {
			defer wg.Done()
			p, err := NewFFT3D(k, n, m, WithBufferElems(256), withLanes(2))
			if err != nil {
				failures[i] = err
				return
			}
			x := cvec.Random(rand.New(rand.NewSource(int64(200+i))), k*n*m)
			want := spl.Eval(spl.DFT3D(k, n, m), x)
			got := make([]complex128, len(x))
			for rep := 0; rep < 5; rep++ {
				if err := p.Forward(got, x); err != nil {
					failures[i] = err
					return
				}
				if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(k*n*m) {
					failures[i] = fmt.Errorf("rep %d: diff %g", rep, d)
					return
				}
			}
		}(i, s[0], s[1], s[2])
	}
	wg.Wait()
	for i := range sizes {
		if failures[i] != nil {
			t.Fatalf("plan %v: %v", sizes[i], failures[i])
		}
	}
}

// TestFFT1DConcurrentTransforms: one FFT1D handle — in cache and past L2 —
// used from several goroutines at once returns the bits of a lone call: the
// plan is immutable and every call draws its own pooled scratch.
func TestFFT1DConcurrentTransforms(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 17} {
		p, err := NewFFT1D(n)
		if err != nil {
			t.Fatal(err)
		}
		x := cvec.Random(rand.New(rand.NewSource(int64(n))), n)
		want := make([]complex128, n)
		if err := p.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]complex128, n)
				for rep := 0; rep < 3; rep++ {
					if err := p.Forward(got, x); err != nil {
						errs[g] = err
						return
					}
					if cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)) != 0 {
						errs[g] = fmt.Errorf("n=%d goroutine %d rep %d: bits differ from the lone call", n, g, rep)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
	}
}
