package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

// MeasuredConfig sizes a real (host-executed) sweep.
type MeasuredConfig struct {
	// Sizes3D to run (defaults to cubes 32..128).
	Sizes3D [][3]int
	// Sizes2D to run (defaults to squares 128..1024).
	Sizes2D [][2]int
	// Reps per measurement (default 3; best is reported).
	Reps int
	// DataWorkers/ComputeWorkers for the double-buffered runs; the
	// baselines run on a pool of their sum.
	DataWorkers    int
	ComputeWorkers int
	BufferElems    int
	// HostBWGBs is the host's STREAM bandwidth for percent-of-peak
	// normalization; 0 measures it first.
	HostBWGBs float64
}

func (c MeasuredConfig) withDefaults() MeasuredConfig {
	if len(c.Sizes3D) == 0 {
		c.Sizes3D = [][3]int{{32, 32, 32}, {64, 64, 64}, {128, 64, 64}, {128, 128, 128}}
	}
	if len(c.Sizes2D) == 0 {
		c.Sizes2D = [][2]int{{128, 128}, {256, 512}, {512, 512}, {1024, 1024}}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.DataWorkers == 0 {
		c.DataWorkers = 1
	}
	if c.ComputeWorkers == 0 {
		c.ComputeWorkers = 1
	}
	if c.BufferElems == 0 {
		c.BufferElems = 1 << 14
	}
	return c
}

// pipeline is the double-buffered plans' configuration.
func (c MeasuredConfig) pipeline() core.Config {
	return core.Config{BufferElems: c.BufferElems, DataWorkers: c.DataWorkers, ComputeWorkers: c.ComputeWorkers}
}

func timeBest(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		el := time.Since(start)
		if r == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// timePlan times the product plan's forward transform y = DFT(x), best of
// reps, and closes the plan.
func timePlan(reps int, p *core.Plan, y, x []complex128) (float64, error) {
	defer p.Close()
	d, err := timeBest(reps, func() error { return p.Transform(y, x, fft1d.Forward) })
	return d.Seconds(), err
}

// timeBaseline times y = DFT(x) through one of the in-place baselines, best
// of reps, the copy of x into y included.
func timeBaseline(reps int, y, x []complex128, baseline func(y []complex128)) float64 {
	d, _ := timeBest(reps, func() error {
		copy(y, x)
		baseline(y)
		return nil
	})
	return d.Seconds()
}

// Measured3D runs the pencil and slab baselines and the double-buffered 3D
// plan on the host at the configured sizes and prints seconds,
// pseudo-Gflop/s and percent of this host's achievable peak.
func Measured3D(w io.Writer, cfg MeasuredConfig) error {
	cfg = cfg.withDefaults()
	if cfg.HostBWGBs == 0 {
		cfg.HostBWGBs = stream.BestCopyGBs(stream.Config{Elems: 1 << 22, Trials: 3})
	}
	fmt.Fprintf(w, "Measured 3D sweep on this host (STREAM copy ≈ %.1f GB/s)\n", cfg.HostBWGBs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\tpencil\tslab\tdoublebuf\tdoublebuf pct-peak\tdb/pencil")
	workers := cfg.DataWorkers + cfg.ComputeWorkers
	for _, s := range cfg.Sizes3D {
		k, n, m := s[0], s[1], s[2]
		elems := k * n * m
		x := make([]complex128, elems)
		for i := range x {
			x[i] = complex(float64(i%17)-8, float64(i%13)-6)
		}
		y := make([]complex128, elems)

		pencil := timeBaseline(cfg.Reps, y, x, func(y []complex128) { Pencil3D(y, k, n, m, fft1d.Forward, workers) })
		slab := timeBaseline(cfg.Reps, y, x, func(y []complex128) { Slab3D(y, k, n, m, fft1d.Forward, workers) })
		p, err := fft3d.NewPlan(k, n, m, cfg.pipeline())
		if err != nil {
			return err
		}
		dbuf, err := timePlan(cfg.Reps, p, y, x)
		if err != nil {
			return err
		}
		peak := perfmodel.AchievablePeakGflops(elems, 3, cfg.HostBWGBs)
		db := perfmodel.PseudoGflops(elems, dbuf)
		fmt.Fprintf(tw, "%dx%dx%d\t%.4fs\t%.4fs\t%.4fs\t%.0f%%\t%.2fx\n",
			k, n, m, pencil, slab, dbuf, db/peak*100, pencil/dbuf)
	}
	return tw.Flush()
}

// Measured2D is Measured3D for the 2D implementations (pencil baseline vs
// double-buffered).
func Measured2D(w io.Writer, cfg MeasuredConfig) error {
	cfg = cfg.withDefaults()
	if cfg.HostBWGBs == 0 {
		cfg.HostBWGBs = stream.BestCopyGBs(stream.Config{Elems: 1 << 22, Trials: 3})
	}
	fmt.Fprintf(w, "Measured 2D sweep on this host (STREAM copy ≈ %.1f GB/s)\n", cfg.HostBWGBs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\tpencil\tdoublebuf\tdoublebuf pct-peak\tdb/pencil")
	workers := cfg.DataWorkers + cfg.ComputeWorkers
	for _, s := range cfg.Sizes2D {
		n, m := s[0], s[1]
		elems := n * m
		x := cvec.New(elems)
		for i := range x {
			x[i] = complex(float64(i%11)-5, float64(i%7)-3)
		}
		y := make([]complex128, elems)

		pencil := timeBaseline(cfg.Reps, y, x, func(y []complex128) { Pencil2D(y, n, m, fft1d.Forward, workers) })
		p, err := fft2d.NewPlan(n, m, cfg.pipeline())
		if err != nil {
			return err
		}
		dbuf, err := timePlan(cfg.Reps, p, y, x)
		if err != nil {
			return err
		}
		peak := perfmodel.AchievablePeakGflops(elems, 2, cfg.HostBWGBs)
		db := perfmodel.PseudoGflops(elems, dbuf)
		fmt.Fprintf(tw, "%dx%d\t%.4fs\t%.4fs\t%.0f%%\t%.2fx\n",
			n, m, pencil, dbuf, db/peak*100, pencil/dbuf)
	}
	return tw.Flush()
}
