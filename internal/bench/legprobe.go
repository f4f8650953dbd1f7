package bench

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

// cacheReps is LegProbe's floor on runs of the cache-resident 512² shape:
// at 5 runs the same binary read its compute legs anywhere from 0.43 to
// 0.98 ms; 301 round trips take a few seconds.
const cacheReps = 301

// LegProbe prints the per-stage leg budget of the two out-of-LLC complex
// shapes — 256³ and 4096², 256 MiB an array — of 2048², 64 MiB an array, of
// cache2d's 512², 4 MiB an array inside the LLC (printed in µs resolution:
// its legs are under a millisecond), and of two real shapes — real3d's
// 512×256×256 and real 4096², whose real arrays are 256 and 128 MiB —
// through the product configuration (core.Default(), one lane per
// GOMAXPROCS): per direction and stage the load, compute and store
// milliseconds from Observability() deltas, summed over the lanes, Σ legs
// beside the wall time, each stage's load + store beside the same run's
// streamed copy of one array onto another of its type (2·N·16 B complex,
// 2·N·8 B real: what a stage's data legs move), and per lane its Σ legs and
// its stage-barrier wait. The 512² stages print their load as "folded":
// their first sweep reads the source, so the compute column includes that
// read and the data legs are the store alone. At one lane 256³'s and 4096²'s
// stages print their store as "folded" too: their last sweep writes the
// destination, so the compute column holds every byte they move. Every figure is the median of
// reps runs — of at least cacheReps at 512², whose sub-millisecond legs a
// handful of runs does not resolve. `make legprobe` runs it at GOMAXPROCS=1,
// where one lane executes the legs one after another and they sum to the
// wall; `make laneprobe` runs it at GOMAXPROCS=2 beside 1, where the two
// lanes' legs and waits each tile the wall.
func LegProbe(w io.Writer, reps int) error {
	if reps < 1 {
		reps = 5
	}
	for _, c := range []struct {
		dims []int
		real bool
		reps int
	}{
		{[]int{256, 256, 256}, false, reps},
		{[]int{4096, 4096}, false, reps},
		{[]int{2048, 2048}, false, reps},
		{[]int{512, 512}, false, max(reps, cacheReps)},
		{[]int{512, 256, 256}, true, reps},
		{[]int{4096, 4096}, true, reps},
	} {
		// Collect the last shape's arrays and return them to the OS before
		// this one allocates (FreeOSMemory runs the GC first): 512² probed
		// on a heap the 256 MiB shapes left behind read ≈ 1.55× its walls
		// in a fresh process.
		debug.FreeOSMemory()
		if err := legProbeShape(w, c.dims, c.real, c.reps); err != nil {
			return err
		}
	}
	return nil
}

// legProbeShape builds the product plan of one complex or real shape and the
// arrays of its round trip, and probes it: forward x → spectrum, inverse
// spectrum → x (complex) or → a second real array (real), and the copy of x
// onto that second array.
func legProbeShape(w io.Writer, dims []int, realInput bool, reps int) error {
	p, err := core.NewPlan(core.Default(), realInput, dims...)
	if err != nil {
		return err
	}
	defer p.Close()
	n, label := p.Len(), fmt.Sprint(dims)
	if !realInput {
		x, y := make([]complex128, n), make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%17)-8, float64(i%13)-6)
		}
		return legProbeOne(w, label, p, n*16,
			func() error { return p.Transform(y, x, fft1d.Forward) },
			func() error { return p.Inverse(x, y) },
			func() { copy(y, x) }, reps)
	}
	x, back := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	spec := make([]complex128, p.SpectrumLen())
	return legProbeOne(w, "real "+label, p, n*8,
		func() error { return p.ForwardReal(spec, x, 1) },
		func() error { return p.InverseReal(back, spec, 1) },
		func() { copy(back, x) }, reps)
}

// legProbeOne runs reps round trips of fwd then inv, each after a timed
// copy, and prints the legs of every stage a direction ran. arrayBytes is
// the size of the array copy moves.
func legProbeOne(w io.Writer, label string, p *core.Plan, arrayBytes int, fwd, inv func() error, copyArray func(), reps int) error {
	type sample struct {
		wall   float64
		stages [][3]float64 // load, compute, store ms
		ran    []bool       // whether the direction ran the stage
		folded []bool       // whether its first sweep read the source (load bytes, no load time)
		sunk   []bool       // whether its last sweep wrote the destination (store bytes, no store time)
		lanes  [][2]float64 // per lane: Σ legs, stage-barrier wait ms
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
			s.ran = append(s.ran, st.Store.Ops != b.Store.Ops)
			s.folded = append(s.folded, st.Load.Bytes != b.Load.Bytes && st.Load.Ns == b.Load.Ns)
			s.sunk = append(s.sunk, st.Store.Bytes != b.Store.Bytes && st.Store.Ns == b.Store.Ns)
		}
		for i, l := range after.Lanes {
			b := before.Lanes[i]
			s.lanes = append(s.lanes, [2]float64{
				float64(l.LegNs-b.LegNs) / 1e6, float64(l.BarrierWaitNs-b.BarrierWaitNs) / 1e6,
			})
		}
		return s, nil
	}
	// One untimed round trip faults the arrays in and warms the arenas.
	if err := fwd(); err != nil {
		return err
	}
	if err := inv(); err != nil {
		return err
	}
	var fwds, invs []sample
	var copies []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		copyArray()
		copies = append(copies, ms(time.Since(t0)))
		f, err := run(fwd)
		if err != nil {
			return err
		}
		i, err := run(inv)
		if err != nil {
			return err
		}
		fwds, invs = append(fwds, f), append(invs, i)
	}
	copyMs := median(copies)
	names := p.Observability().Stages
	fwdWall := medianOf(fwds, func(s sample) float64 { return s.wall })
	invWall := medianOf(invs, func(s sample) float64 { return s.wall })
	prec := 1 // decimals of a millisecond
	if fwdWall < 10 {
		prec = 3
	}

	mib := arrayBytes >> 20
	fmt.Fprintf(w, "legprobe %s: %d MiB an array, %d lane(s), median of %d; streamed copy of 2·%d MiB %.*f ms (%.1f GB/s)\n",
		label, mib, len(p.Observability().Lanes), reps, mib, prec, copyMs, float64(2*arrayBytes)/copyMs/1e6)
	fmt.Fprint(w, p.DescribeGraph())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "dir\tstage\tload ms\tcompute ms\tstore ms\tload+store\t/ copy\t")
	var sums []string
	for _, d := range []struct {
		name string
		s    []sample
		wall float64
	}{{"fwd", fwds, fwdWall}, {"inv", invs, invWall}} {
		sum := 0.0
		for i := range names {
			if !d.s[0].ran[i] {
				continue
			}
			var leg [3]float64
			for k := range leg {
				leg[k] = medianOf(d.s, func(s sample) float64 { return s.stages[i][k] })
				sum += leg[k]
			}
			// A folded load or store is no leg: the compute column includes
			// the source read or the destination write, and the data legs
			// are what is left of them — none, when both fold.
			load, store := fmt.Sprintf("%.*f", prec, leg[0]), fmt.Sprintf("%.*f", prec, leg[2])
			data, ratio := fmt.Sprintf("%.*f", prec, leg[0]+leg[2]), fmt.Sprintf("%.2f", (leg[0]+leg[2])/copyMs)
			if d.s[0].folded[i] {
				load = "folded"
			}
			if d.s[0].sunk[i] {
				store = "folded"
			}
			if d.s[0].folded[i] && d.s[0].sunk[i] {
				data, ratio = "-", "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.*f\t%s\t%s\t%s\t\n", d.name, names[i].Name,
				load, prec, leg[1], store, data, ratio)
		}
		line := fmt.Sprintf("  %s: Σ legs %.*f ms, wall %.*f ms", d.name, prec, sum, prec, d.wall)
		for l := range d.s[0].lanes {
			line += fmt.Sprintf("; lane %d legs %.*f, wait %.*f ms", l, prec,
				medianOf(d.s, func(s sample) float64 { return s.lanes[l][0] }), prec,
				medianOf(d.s, func(s sample) float64 { return s.lanes[l][1] }))
		}
		sums = append(sums, line)
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
