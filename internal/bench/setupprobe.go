package bench

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// setupWarmReps is how many warm forwards SetupProbe takes the median of.
const setupWarmReps = 3

// setupCases are SetupProbe's cases: each shape with its destination fresh,
// then pre-touched, and 256³ once more beside a live plan of its shape.
var setupCases = []struct {
	dims            []int
	real            bool
	touched, second bool
}{
	{[]int{256, 256, 256}, false, false, false},
	{[]int{256, 256, 256}, false, true, false},
	{[]int{512, 256, 256}, true, false, false},
	{[]int{512, 256, 256}, true, true, false},
	{[]int{1 << 24}, false, false, false},
	{[]int{1 << 24}, false, true, false},
	{[]int{256, 256, 256}, false, true, true},
}

// SetupProbe prints where a plan's first transform goes, for complex 256³,
// real 512×256×256 and complex 1D at 2²⁴: core.NewPlan and the first Forward
// beside the median warm Forward, once with the caller's destination freshly
// allocated (its pages not yet resident) and once with it written
// beforehand, with the build lines and the first run's pre-fault from
// Observability() (all zero for the 1D plan, which runs no pipeline). The
// source is filled, so resident, in both cases. A last case builds a second
// 256³ plan while a first one, run once on the same arrays, stays open: its
// first run finds the engine's lanes and work array warm.
//
// Every case runs in a process of its own — exe with args and the case's
// index appended — as a plan built on entry to a program would: Go zeroes
// reused heap memory at make time, so in a process that had already run a
// case the engine's pooled work array would be warm and a fresh destination
// would not be fresh. The 1D plan therefore builds its twiddle tables in
// the first transform of either case. `make setupprobe` runs it at
// GOMAXPROCS=1.
func SetupProbe(w io.Writer, exe string, args ...string) error {
	for i := range setupCases {
		cmd := exec.Command(exe, append(args[:len(args):len(args)], strconv.Itoa(i))...)
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("setup case %d: %w", i, err)
		}
	}
	return nil
}

// SetupProbeCase runs case i of SetupProbe in this process.
func SetupProbeCase(w io.Writer, i int) error {
	if i < 0 || i >= len(setupCases) {
		return fmt.Errorf("setup case %d, want 0 to %d", i, len(setupCases)-1)
	}
	c := setupCases[i]
	return setupProbePlan(w, c.dims, c.real, c.touched, c.second)
}

// setupProbePlan probes core.NewPlan of one shape; second probes it beside
// a live plan of the shape that ran once first.
func setupProbePlan(w io.Writer, dims []int, realInput, touched, second bool) error {
	var p *core.Plan
	var fwd func() error
	build := func() (err error) {
		p, err = core.NewPlan(core.Config{}, realInput, dims...)
		return err
	}
	n, spec := core.ShapeOf(realInput, dims...).Lens(false)
	label := fmt.Sprint("complex ", dims)
	if realInput {
		label = fmt.Sprint("real ", dims)
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(i%17) - 8
		}
		dst := make([]complex128, spec)
		touch(dst, touched)
		fwd = func() error { return p.ForwardReal(dst, src, 1) }
	} else {
		src, dst := make([]complex128, n), make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i%17)-8, float64(i%13)-6)
		}
		touch(dst, touched)
		fwd = func() error { return p.Transform(dst, src, fft1d.Forward) }
	}
	if second {
		label += " beside a live one"
		if err := build(); err != nil {
			return err
		}
		defer p.Close()
		if err := fwd(); err != nil {
			return err
		}
	}
	newPlan, first, warm, err := setupTimes(build, fwd)
	if p != nil {
		defer p.Close()
	}
	if err != nil {
		return err
	}
	o := p.Observability()
	b := o.Build
	fmt.Fprintf(w, "setupprobe %s, dst %s: NewPlan %.1f ms (sub-plans %.2f, graph+runner %.2f), "+
		"first Forward %.1f ms (pre-fault %.1f ms, %d MiB), warm Forward %.1f ms; (NewPlan + first) / warm = %.2f\n",
		label, dstState(touched), ms(newPlan), nsMs(b.SubPlansNs), nsMs(b.GraphNs),
		ms(first), nsMs(o.PrefaultNs), o.PrefaultBytes>>20, ms(warm), float64(newPlan+first)/float64(warm))
	return nil
}

// setupTimes times build, the first fwd after it, and the median of
// setupWarmReps more.
func setupTimes(build, fwd func() error) (newPlan, first, warm time.Duration, err error) {
	t0 := time.Now()
	if err = build(); err != nil {
		return
	}
	t1 := time.Now()
	if err = fwd(); err != nil {
		return
	}
	newPlan, first = t1.Sub(t0), time.Since(t1)
	var warms []float64
	for r := 0; r < setupWarmReps; r++ {
		t := time.Now()
		if err = fwd(); err != nil {
			return
		}
		warms = append(warms, float64(time.Since(t)))
	}
	return newPlan, first, time.Duration(median(warms)), nil
}

// touch writes every element of x when touched, leaving none of its pages
// to fault in later.
func touch(x []complex128, touched bool) {
	if touched {
		for i := range x {
			x[i] = 1
		}
	}
}

func dstState(touched bool) string {
	if touched {
		return "pre-touched"
	}
	return "fresh"
}

// nsMs converts a nanosecond counter to milliseconds.
func nsMs(v uint64) float64 { return float64(v) / 1e6 }
