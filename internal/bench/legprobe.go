package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/obs"
)

// cacheReps is LegProbe's floor on runs of the cache-resident 512² shape:
// at 5 runs the same binary read its compute legs anywhere from 0.43 to
// 0.98 ms; 301 round trips take a few seconds.
const cacheReps = 301

// legPlan is what LegProbe needs of a 2D or 3D plan.
type legPlan interface {
	Transform(dst, src []complex128, sign int) error
	Inverse(dst, src []complex128) error
	Observability() obs.Snapshot
	DescribeGraph() string
	Close()
}

// LegProbe prints the per-stage leg budget of the two out-of-LLC complex
// shapes — 256³ and 4096², 256 MiB an array — and of cache2d's 512², 4 MiB
// an array inside the LLC (printed in µs resolution: its legs are under a
// millisecond), through the product
// configuration (core.Config{}): per direction and stage the load, compute
// and store milliseconds from Observability() deltas, Σ legs beside the wall
// time, and each stage's load + store beside the same run's streamed copy of
// one array onto the other (2·N·16 B, what a stage's data legs move). Every
// figure is the median of reps runs — of at least cacheReps at 512², whose
// sub-millisecond legs a handful of runs does not resolve. `make legprobe`
// runs it at GOMAXPROCS=1, where the legs execute one after another and sum
// to the wall.
func LegProbe(w io.Writer, reps int) error {
	if reps < 1 {
		reps = 5
	}
	for _, c := range []struct {
		dims []int
		reps int
	}{{[]int{256, 256, 256}, reps}, {[]int{4096, 4096}, reps}, {[]int{512, 512}, max(reps, cacheReps)}} {
		dims := c.dims
		var p legPlan
		var err error
		if len(dims) == 3 {
			p, err = fft3d.NewPlan(dims[0], dims[1], dims[2], core.Config{})
		} else {
			p, err = fft2d.NewPlan(dims[0], dims[1], core.Config{})
		}
		if err != nil {
			return err
		}
		err = legProbeOne(w, p, dims, c.reps)
		p.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func legProbeOne(w io.Writer, p legPlan, dims []int, reps int) error {
	n := 1
	for _, d := range dims {
		n *= d
	}
	x, y := make([]complex128, n), make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%17)-8, float64(i%13)-6)
	}
	type sample struct {
		wall   float64
		stages [][3]float64 // load, compute, store ms
	}
	run := func(f func() error) (sample, error) {
		before := p.Observability()
		t0 := time.Now()
		if err := f(); err != nil {
			return sample{}, err
		}
		s := sample{wall: ms(time.Since(t0))}
		after := p.Observability()
		for i, st := range after.Stages {
			b := before.Stages[i]
			s.stages = append(s.stages, [3]float64{
				float64(st.Load.Ns-b.Load.Ns) / 1e6,
				float64(st.ComputeNs-b.ComputeNs) / 1e6,
				float64(st.Store.Ns-b.Store.Ns) / 1e6,
			})
		}
		return s, nil
	}
	// One untimed round trip faults the arrays in and warms the arenas.
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		return err
	}
	if err := p.Inverse(x, y); err != nil {
		return err
	}
	var fwd, inv []sample
	var copies []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		copy(y, x)
		copies = append(copies, ms(time.Since(t0)))
		f, err := run(func() error { return p.Transform(y, x, fft1d.Forward) })
		if err != nil {
			return err
		}
		i, err := run(func() error { return p.Inverse(x, y) })
		if err != nil {
			return err
		}
		fwd, inv = append(fwd, f), append(inv, i)
	}
	copyMs := median(copies)
	names := p.Observability().Stages
	fwdWall := medianOf(fwd, func(s sample) float64 { return s.wall })
	invWall := medianOf(inv, func(s sample) float64 { return s.wall })
	prec := 1 // decimals of a millisecond
	if fwdWall < 10 {
		prec = 3
	}

	fmt.Fprintf(w, "legprobe %v: %d MiB an array, median of %d; streamed copy of 2·%d MiB %.*f ms (%.1f GB/s)\n",
		dims, n*16>>20, reps, n*16>>20, prec, copyMs, float64(2*n*16)/copyMs/1e6)
	fmt.Fprint(w, p.DescribeGraph())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dir\tstage\tload ms\tcompute ms\tstore ms\tload+store\t/ copy\t")
	var sums []string
	for _, d := range []struct {
		name string
		s    []sample
		wall float64
	}{{"fwd", fwd, fwdWall}, {"inv", inv, invWall}} {
		sum := 0.0
		for i := range names {
			var leg [3]float64
			for k := range leg {
				leg[k] = medianOf(d.s, func(s sample) float64 { return s.stages[i][k] })
				sum += leg[k]
			}
			fmt.Fprintf(tw, "%s\t%s\t%.*f\t%.*f\t%.*f\t%.*f\t%.2f\t\n", d.name, names[i].Name,
				prec, leg[0], prec, leg[1], prec, leg[2], prec, leg[0]+leg[2], (leg[0]+leg[2])/copyMs)
		}
		sums = append(sums, fmt.Sprintf("  %s: Σ legs %.*f ms, wall %.*f ms", d.name, prec, sum, prec, d.wall))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, l := range sums {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}
